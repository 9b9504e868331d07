import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wdlearn
from wdlearn import bank as bank_module
from wdlearn.bank import (
    BankEntry,
    PotentialBank,
    build_bank,
    eval_G_many,
    export_affine,
    nested_random_schedule,
    random_indices,
    read_bank,
    select_cover_indices,
    write_bank,
)
from wdlearn.errors import CertificateViolation, EmptyBank
from wdlearn.measures import DiscreteMeasure, GroundSpace, MeasureDataset
from wdlearn.ot import PotentialPair, exact_ot, pairwise_wasserstein


@pytest.fixture(scope="module")
def small_dataset():
    rng = np.random.default_rng(42)
    ground = GroundSpace.grid((3, 3))
    train = [DiscreteMeasure(ground, rng.dirichlet(np.ones(9))) for _ in range(12)]
    test = [DiscreteMeasure(ground, rng.dirichlet(np.ones(9))) for _ in range(8)]
    return MeasureDataset(ground, train, test)


@pytest.fixture(scope="module")
def theta(small_dataset):
    return DiscreteMeasure(
        small_dataset.ground, np.full(small_dataset.ground.size, 1.0 / 9.0)
    )


@pytest.fixture(scope="module")
def bank(small_dataset, theta):
    return build_bank(small_dataset, theta, range(6))


class TestBuildBank:
    def test_empty(self, small_dataset, theta):
        b = build_bank(small_dataset, theta, [])
        assert len(b) == 0
        calls = [
            lambda: eval_G_many(b, theta.weights[None, :]),
            lambda: eval_G_many(b, small_dataset.test_matrix),
            lambda: export_affine(b),
        ]
        for call in calls:
            with pytest.raises(EmptyBank, match="bank has no entries"):
                call()

    def test_duality_invariant(self, small_dataset, theta, bank):
        bank.check_duality(small_dataset)

    def test_reproduces_distances(self, small_dataset, theta, bank):
        for e in bank.entries:
            _, _, wpp = exact_ot(theta, small_dataset.train[e.source_index])
            assert e.wpp == pytest.approx(wpp, abs=1e-10)


def off_by_one_micro(theta, mu):
    """``exact_ot`` with ``phi`` raised by 1e-6, which breaks duality."""
    plan, pot, wpp = exact_ot(theta, mu)
    return plan, PotentialPair(pot.phi + 1e-6, pot.psi, pot.dual_value), wpp


class TestDualityCertificate:
    def test_tampered_entry_raises(self, small_dataset, bank):
        e = bank.entries[2]
        entries = list(bank.entries)
        entries[2] = replace(e, psi_bar=e.psi_bar + 1e-6)
        tampered = PotentialBank(bank.theta, entries)
        with pytest.raises(CertificateViolation, match=f"bank entry {e.source_index} "):
            tampered.check_duality(small_dataset)

    def test_build_bank_checks_each_entry(self, small_dataset, theta, monkeypatch):
        monkeypatch.setattr(bank_module, "exact_ot", off_by_one_micro)
        with pytest.raises(CertificateViolation, match="violates duality by 1.000e-06"):
            build_bank(small_dataset, theta, [3])

    def test_check_survives_python_O(self):
        script = textwrap.dedent(
            """
            import sys
            import numpy as np
            from wdlearn import bank, ot
            from wdlearn.errors import CertificateViolation
            from wdlearn.measures import DiscreteMeasure, GroundSpace, MeasureDataset

            def off_by_one_micro(theta, mu):
                plan, pot, wpp = ot.exact_ot(theta, mu)
                return plan, ot.PotentialPair(pot.phi + 1e-6, pot.psi, pot.dual_value), wpp

            g = GroundSpace.grid((2, 2))
            ds = MeasureDataset(g, [DiscreteMeasure(g, [0.1, 0.2, 0.3, 0.4])], [])
            bank.exact_ot = off_by_one_micro
            try:
                bank.build_bank(ds, DiscreteMeasure(g, np.full(4, 0.25)), [0])
            except CertificateViolation:
                print("raised under optimize level", sys.flags.optimize)
            """
        )
        env = dict(os.environ, PYTHONPATH=str(Path(wdlearn.__file__).resolve().parents[1]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert out.stdout.strip() == "raised under optimize level 1"


class TestEvalG:
    def test_interpolation_at_anchors(self, small_dataset, bank):
        anchors = np.stack([small_dataset.train[e.source_index].weights for e in bank.entries])
        wpp = [e.wpp for e in bank.entries]
        np.testing.assert_allclose(eval_G_many(bank, anchors), wpp, rtol=0, atol=1e-8)

    def test_weak_duality(self, small_dataset, theta, bank):
        wpp = np.array([exact_ot(theta, mu)[2] for mu in small_dataset.test])
        assert (eval_G_many(bank, small_dataset.test_matrix) <= wpp + 1e-8).all()

    def test_single_entry_on_diracs(self):
        ground = GroundSpace.grid((2,))
        theta = DiscreteMeasure.dirac(ground, 0)
        mu1 = DiscreteMeasure.dirac(ground, 1)
        ds = MeasureDataset(ground, [mu1], [])
        b = build_bank(ds, theta, [0])
        assert eval_G_many(b, mu1.weights[None, :])[0] == pytest.approx(1.0, abs=1e-10)

    def test_monotone_in_bank_size(self, small_dataset, bank):
        sub = bank.subset(range(3))
        W = small_dataset.test_matrix
        np.testing.assert_array_equal(
            eval_G_many(sub, W) <= eval_G_many(bank, W) + 0.0, True
        )

    def test_many_matches_scalar(self, small_dataset, bank):
        W = small_dataset.test_matrix
        many = eval_G_many(bank, W)
        # G(mu) = max_k <phi_k, mu> + psi_bar_k, one measure at a time
        each = [max(e.phi @ mu.weights + e.psi_bar for e in bank.entries) for mu in small_dataset.test]
        np.testing.assert_allclose(many, each)


class TestCoverSelection:
    def test_large_delta_single_center(self, small_dataset, theta):
        D = pairwise_wasserstein(small_dataset.train)
        idx = select_cover_indices(small_dataset, theta, D.max() + 1.0, D)
        assert idx == [0]

    def test_tiny_delta_selects_all(self, small_dataset, theta):
        D = pairwise_wasserstein(small_dataset.train)
        idx = select_cover_indices(small_dataset, theta, 1e-12, D)
        assert idx == list(range(len(small_dataset.train)))

    def test_every_point_covered(self, small_dataset, theta):
        D = pairwise_wasserstein(small_dataset.train)
        delta = np.median(D)
        idx = select_cover_indices(small_dataset, theta, delta, D)
        assert np.all(D[:, idx].min(axis=1) <= delta)

    def test_matches_brute_force_on_known_geometry(self):
        # three measures with pairwise distances (0.1, ~5, ~5): a 0.2-cover
        # needs exactly 2 centers
        ground = GroundSpace.line([0.0, 0.1, 5.0])
        m0 = DiscreteMeasure.dirac(ground, 0)
        m1 = DiscreteMeasure.dirac(ground, 1)
        m2 = DiscreteMeasure.dirac(ground, 2)
        ds = MeasureDataset(ground, [m0, m1, m2], [])
        theta = m0
        D = pairwise_wasserstein(ds.train)
        idx = select_cover_indices(ds, theta, 0.2, D)
        assert len(idx) == 2
        # brute force: no single center covers everything
        assert not any(np.all(D[i] <= 0.2) for i in range(3))


class TestAffineExport:
    def test_constant_potential(self):
        ground = GroundSpace.grid((2,))
        theta = DiscreteMeasure(ground, [0.5, 0.5])
        from wdlearn.bank import BankEntry

        b = PotentialBank(
            theta, [BankEntry(source_index=0, phi=np.full(2, 1.5), psi_bar=0.25, wpp=1.75)]
        )
        A, bias = export_affine(b)
        np.testing.assert_allclose(A, 1.5)
        np.testing.assert_allclose(bias, [0.25])
        mu = DiscreteMeasure(ground, [0.3, 0.7])
        assert eval_G_many(b, mu.weights[None, :])[0] == pytest.approx(1.5 + 0.25)

    def test_matches_eval_on_random_measures(self, small_dataset, bank):
        rng = np.random.default_rng(3)
        A, b = export_affine(bank.subset(range(2)))
        sub = bank.subset(range(2))
        W = rng.dirichlet(np.ones(small_dataset.ground.size), size=50)
        np.testing.assert_allclose((W @ A.T + b).max(axis=1), eval_G_many(sub, W), rtol=0, atol=1e-12)


class TestSchedulesAndIO:
    def test_random_indices_deterministic(self):
        assert random_indices(100, 10, 7) == random_indices(100, 10, 7)

    def test_random_indices_reject_more_indices_than_train_measures(self):
        # a set of j indices or an error: fewer would build a smaller bank
        # than asked for
        assert random_indices(10, 10, 3) == list(range(10))
        with pytest.raises(ValueError, match="^a random index set of j=11 exceeds the 10 train measures$"):
            random_indices(10, 11, 3)

    def test_nested_schedule_is_nested(self):
        sched = nested_random_schedule(50, [5, 10, 20], seed=1)
        assert set(sched[5]) <= set(sched[10]) <= set(sched[20])

    def test_nested_schedule_rejects_a_size_above_the_train_set(self):
        with pytest.raises(ValueError, match="schedule size 51 exceeds the train set"):
            nested_random_schedule(50, [5, 51], seed=1)

    def test_bank_roundtrip(self, tmp_path, small_dataset, theta, bank):
        path = tmp_path / "bank.txt"
        write_bank(path, bank)
        back = read_bank(path, theta)
        assert back.indices == bank.indices
        W = small_dataset.test_matrix
        np.testing.assert_allclose(eval_G_many(back, W), eval_G_many(bank, W))

    def test_bank_rejects_wrong_reference(self, tmp_path, small_dataset, theta, bank):
        path = tmp_path / "bank.txt"
        write_bank(path, bank)
        other = DiscreteMeasure.dirac(small_dataset.ground, 0)
        with pytest.raises(ValueError):
            read_bank(path, other)

    def test_bank_rejects_wrong_ground(self, tmp_path, theta, bank):
        # the same weights on another 9-point ground of the same p: only
        # the points, which the reference hash covers, tell them apart
        path = tmp_path / "bank.txt"
        write_bank(path, bank)
        other_theta = DiscreteMeasure(GroundSpace.line(np.arange(9.0) * 10), theta.weights)
        message = "^bank file was built against a different reference or ground points$"
        with pytest.raises(ValueError, match=message):
            read_bank(path, other_theta)

    def test_bank_rejects_another_ground_size(self, tmp_path, bank):
        path = tmp_path / "bank.txt"
        write_bank(path, bank)
        other_theta = DiscreteMeasure(GroundSpace.grid((2, 2)), np.full(4, 0.25))
        with pytest.raises(ValueError, match="^bank file does not match the ground space$"):
            read_bank(path, other_theta)

    def test_bank_rejects_another_metric_order(self, tmp_path, theta, bank):
        # the same weights hash alike, so only the ground check can trigger
        path = tmp_path / "bank.txt"
        write_bank(path, bank)
        g = theta.ground
        other_theta = DiscreteMeasure(GroundSpace(g.points, 3.0, g.grid_shape), theta.weights)
        with pytest.raises(ValueError, match="bank file does not match the ground space"):
            read_bank(path, other_theta)


def _random_bank(count, seed):
    """A bank of random entries on the 3x3 grid against the uniform
    reference; the file format does not check duality."""
    rng = np.random.default_rng(seed)
    ground = GroundSpace.grid((3, 3))
    entries = [
        BankEntry(int(k), rng.normal(size=9), float(rng.normal()), float(rng.random()))
        for k in rng.integers(0, 100, size=count)
    ]
    return PotentialBank(DiscreteMeasure(ground, np.full(9, 1.0 / 9.0)), entries)


banks = st.builds(_random_bank, st.integers(0, 4), st.integers(0, 2**32 - 1))


class TestBankFileProperties:
    """Round trips and corruptions of the bank text format."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("banks") / "bank.txt"

    @settings(max_examples=40, deadline=None)
    @given(bk=banks)
    def test_roundtrip_is_bitwise(self, path, bk):
        write_bank(path, bk)
        back = read_bank(path, bk.theta)
        assert len(back) == len(bk)
        for a, b in zip(bk.entries, back.entries):
            assert (a.source_index, a.wpp, a.psi_bar) == (b.source_index, b.wpp, b.psi_bar)
            np.testing.assert_array_equal(a.phi, b.phi)

    @settings(max_examples=60, deadline=None)
    @given(bk=banks, data=st.data())
    def test_every_cut_ends_early(self, path, bk, data):
        write_bank(path, bk)
        text = path.read_text()
        path.write_text(text[: data.draw(st.integers(0, len(text) - 1))])
        with pytest.raises(ValueError, match="bank file ended early: line"):
            read_bank(path, bk.theta)

    @settings(max_examples=30, deadline=None)
    @given(bk=banks, junk=st.sampled_from(["0.5", "x", "1 2 3"]))
    def test_trailing_data_names_its_line(self, path, bk, junk):
        write_bank(path, bk)
        path.write_text(path.read_text() + junk + "\n")
        line = 2 + 2 * len(bk)
        with pytest.raises(ValueError, match=f"line {line}: data after the last record"):
            read_bank(path, bk.theta)

    @settings(max_examples=30, deadline=None)
    @given(bk=banks, data=st.data())
    def test_phi_of_wrong_length_names_its_line(self, path, bk, data):
        if len(bk) == 0:
            return
        write_bank(path, bk)
        lines = path.read_text().split("\n")
        i = data.draw(st.integers(1, len(bk)))
        values = lines[2 * i].split()
        lines[2 * i] = " ".join(values[:-1] if data.draw(st.booleans()) else values + ["0.0"])
        path.write_text("\n".join(lines))
        match = f"line {2 * i + 1}: entry {i} of {len(bk)}: phi needs 9 fields"
        with pytest.raises(ValueError, match=match):
            read_bank(path, bk.theta)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("3 9 2.0", "line 1: the header .* needs 4 fields, found 3"),
            ("x 9 2.0 {h}", "line 1: the header .* invalid literal for int"),
            ("1 9 2.0 {h}\n0 1.0", "line 2: entry 1 of 1: 'k wpp psi_bar' needs 3 fields"),
            ("1 9 2.0 {h}\n0 1.0 2.0\n" + "0.0 " * 8, "line 3: entry 1 of 1: phi needs 9"),
            ("-1 9 2.0 {h}", "line 1: negative entry count"),
            ("1 9 2.0 {h}\n-1 1.0 2.0", "line 2: entry 1 of 1: negative source index -1"),
            ("1 9 2.0 {h}\n0 nan 2.0", "line 2: entry 1 of 1: wpp and psi_bar must be finite"),
            ("1 9 2.0 {h}\n0 1.0 -inf", "line 2: entry 1 of 1: wpp and psi_bar must be finite"),
            ("2 9 2.0 {h}\n0 1.0 2.0\n" + "0.0 " * 9 + "\n1 1.0 2.0\n" + "0.0 " * 8 + "nan",
             "line 5: entry 2 of 2: phi must be finite"),
            ("1 9 2.0 {h}\n0 1.0 2.0\ninf " + "0.0 " * 8, "line 3: entry 1 of 1: phi must be finite"),
        ],
    )
    def test_malformed_lines_name_their_line(self, tmp_path, text, message):
        theta = _random_bank(0, 0).theta
        path = tmp_path / "bank.txt"
        path.write_text(text.format(h=bank_module.reference_hash(theta)) + "\n")
        with pytest.raises(ValueError, match=message):
            read_bank(path, theta)
