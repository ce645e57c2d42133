import math
import warnings

import numpy as np
import pytest

from lxcim import (
    Dataset,
    EmptyDatasetError,
    NonFiniteMapError,
    make_abs_spec,
    predict,
    rank_by_confidence,
    validate_decision_spec,
)
from lxcim.model import DecisionSpec, SpecValidationReport, SpecViolation

from conftest import random_dataset


class TestSample:
    """Validation of a single row, which Dataset does once for all rows."""

    def test_defaults_weight_to_one(self):
        assert Dataset([1.5], [1]).weights.tolist() == [1.0]

    # kwargs3, a bool label, is gone: Dataset reads True/False as 1/0.
    @pytest.mark.parametrize(
        "kwargs",
        [
            pytest.param(dict(score=float("nan"), label=0), id="kwargs0"),
            pytest.param(dict(score=float("inf"), label=0), id="kwargs1"),
            pytest.param(dict(score=0.0, label=2), id="kwargs2"),
            pytest.param(dict(score=0.0, label=0, weight=0.0), id="kwargs4"),
            pytest.param(dict(score=0.0, label=0, weight=-1.0), id="kwargs5"),
            pytest.param(dict(score=0.0, label=0, weight=float("nan")), id="kwargs6"),
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            Dataset([kwargs["score"]], [kwargs["label"]], [kwargs.get("weight", 1.0)])


class TestDataset:
    def test_round_trips_samples(self):
        rows = [(1.0, 1, 2.0), (-2.0, 0, 1.0), (-3.0, 1, 0.5)]
        d = Dataset(*zip(*rows))
        assert len(d) == 3
        assert d.total_weight == pytest.approx(3.5)
        assert list(zip(d.scores.tolist(), d.labels.tolist(), d.weights.tolist())) == rows

    def test_equality_is_by_value(self):
        a = Dataset([1, -1], [1, 0], [1, 2])
        b = Dataset([1.0, -1.0], [1, 0], [1.0, 2.0])
        c = Dataset([1, -1], [1, 0], [1, 3])
        assert a == b and a != c

    def test_arrays_are_read_only(self):
        d = Dataset([1], [1])
        with pytest.raises(ValueError):
            d.scores[0] = 2.0
        with pytest.raises(AttributeError):
            d.scores = np.array([2.0])

    def test_empty_is_constructible(self):
        assert len(Dataset([], [])) == 0

    @pytest.mark.parametrize(
        "scores,labels,weights",
        [
            ([1, float("nan")], [0, 1], None),
            ([1, 2], [0, 5], None),
            ([1, 2], [0, 0.5], None),
            ([1, 2], [0, 1], [1, 0]),
            ([1, 2], [0, 1], [1, float("inf")]),
            ([1, 2], [0], None),
            ([1, 2], [0, 1], [1]),
        ],
    )
    def test_rejects_invalid_inputs(self, scores, labels, weights):
        with pytest.raises(ValueError):
            Dataset(scores, labels, weights)


class TestPredict:
    def test_above_threshold_is_positive(self, spec0):
        assert predict(0.2, spec0) == 1

    def test_below_threshold_is_negative(self, spec0):
        assert predict(-7.0, spec0) == 0

    def test_at_threshold_is_negative(self):
        assert predict(0.5, make_abs_spec(0.5)) == 0

    def test_vectorized(self, spec0):
        assert predict(np.array([-1.0, 0.0, 3.0]), spec0).tolist() == [0, 0, 1]

    def test_reflection_flips_prediction(self, spec0):
        for s in (-3.0, -0.25, 0.125, 9.0):
            assert predict(spec0.reflect_at(s), spec0) == 1 - predict(s, spec0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, spec0, bad):
        with pytest.raises(ValueError, match="finite"):
            predict(bad, spec0)
        with pytest.raises(ValueError, match="finite"):
            predict(np.array([bad, 1.0]), spec0)
        with pytest.raises(ValueError, match="finite"):
            predict([[1.0], [bad]], spec0)

    @pytest.mark.parametrize(
        "scores", [0.2, 0.0, -3, np.float32(1.5), [], [0.5, -0.5], [[1.0, 0.0], [-2.0, 7.0]]]
    )
    def test_int64_of_the_input_shape(self, spec0, scores):
        out = predict(scores, spec0)
        assert out.dtype == np.int64 and out.shape == np.shape(scores)
        assert np.array_equal(out, np.asarray(scores, dtype=float) > 0.0)


class TestAbsSpec:
    def test_confidence_is_distance(self):
        assert make_abs_spec(0.0).confidence_at(-4.0) == 4.0

    def test_reflect_mirrors_about_threshold(self):
        assert make_abs_spec(0.0).reflect_at(1.0) == -1.0
        assert make_abs_spec(0.5).reflect_at(0.9) == pytest.approx(0.1)

    def test_exact_symmetry_at_zero_threshold(self):
        spec = make_abs_spec(0.0)
        rng = np.random.default_rng(1)
        scores = np.concatenate([rng.uniform(-1e6, 1e6, 500), rng.uniform(-1e-6, 1e-6, 500)])
        reflected = spec.reflect_at(scores)
        assert np.array_equal(spec.confidence_at(reflected), spec.confidence_at(scores))
        assert np.array_equal(spec.reflect_at(reflected), scores)

    def test_exact_symmetry_for_probability_scores(self):
        spec = make_abs_spec(0.5)
        scores = np.random.default_rng(2).uniform(0.0, 1.0, 1000)
        reflected = spec.reflect_at(scores)
        assert np.array_equal(spec.confidence_at(reflected), spec.confidence_at(scores))

    @pytest.mark.parametrize("scores", [1.5, -2, [], [0.25, -4.0], [[1.0], [-1.0]]])
    def test_maps_return_float64_of_the_input_shape(self, scores):
        spec = make_abs_spec(0.5)
        for out in (spec.confidence_at(scores), spec.reflect_at(scores)):
            assert isinstance(out, np.ndarray)
            assert out.dtype == np.float64 and out.shape == np.shape(scores)

    def test_rejects_non_finite_threshold(self):
        with pytest.raises(ValueError):
            make_abs_spec(float("nan"))


class TestValidateDecisionSpec:
    GRID = [-2.0, -1.0, 0.0, 1.0, 2.0]

    def test_abs_spec_is_clean(self):
        assert validate_decision_spec(make_abs_spec(0.0), self.GRID).ok

    def test_monotone_confidence_is_flagged(self):
        spec = DecisionSpec(s_star=0.0, confidence=lambda s: s, reflect=lambda s: -s)
        rep = validate_decision_spec(spec, self.GRID)
        assert "bi-monotonic" in rep.checks_failed()

    def test_identity_reflection_is_flagged(self):
        spec = DecisionSpec(s_star=0.0, confidence=lambda s: abs(s), reflect=lambda s: s)
        rep = validate_decision_spec(spec, [-1.0, 0.0, 1.0])
        assert "sign-flip" in rep.checks_failed()
        assert any(v.check == "sign-flip" and v.s == 1.0 for v in rep.violations)

    def test_nonzero_minimum_is_flagged(self):
        spec = DecisionSpec(s_star=0.0, confidence=lambda s: abs(s) + 1.0, reflect=lambda s: -s)
        rep = validate_decision_spec(spec, self.GRID)
        assert "minimum-at-threshold" in rep.checks_failed()

    # The four checks below are pinned to their exact violations: check, score,
    # detail text and order (grid order, then the order the checks run in).

    def test_non_finite_reflection_is_flagged(self):
        spec = DecisionSpec(s_star=0.0, confidence=np.abs, reflect=lambda s: np.where(s == 2.0, np.inf, -s))
        assert validate_decision_spec(spec, self.GRID).violations == (
            SpecViolation("involution", -2.0, "reflect(reflect(s))=np.float64(inf) != s=np.float64(-2.0)"),
            SpecViolation("reflect-finite", 2.0, "reflect = np.float64(inf)"),
        )

    def test_moved_threshold_is_flagged(self):
        spec = DecisionSpec(s_star=0.0, confidence=np.abs, reflect=lambda s: np.where(s == 0.0, 0.5, -s))
        assert validate_decision_spec(spec, self.GRID).violations == (
            SpecViolation("fixed-point", 0.0, "reflect(s_star) = np.float64(0.5), expected s_star"),
        )

    def test_asymmetric_confidence_is_flagged(self):
        spec = DecisionSpec(s_star=0.0, confidence=lambda s: np.where(s > 0, 2 * s, -s), reflect=np.negative)
        detail = "confidence(reflect(s))=np.float64({}) != confidence(s)=np.float64({})"
        assert validate_decision_spec(spec, self.GRID).violations == (
            SpecViolation("confidence-symmetry", -2.0, detail.format(4.0, 2.0)),
            SpecViolation("confidence-symmetry", -1.0, detail.format(2.0, 1.0)),
            SpecViolation("confidence-symmetry", 1.0, detail.format(1.0, 2.0)),
            SpecViolation("confidence-symmetry", 2.0, detail.format(2.0, 4.0)),
        )

    def test_non_involution_is_flagged(self):
        # keeps floor(|s|), so only the involution breaks
        spec = DecisionSpec(
            s_star=0.0,
            confidence=lambda s: np.floor(np.abs(s)),
            reflect=lambda s: -s - 0.5 * np.sign(s),
        )
        detail = "reflect(reflect(s))=np.float64({}) != s=np.float64({})"
        assert validate_decision_spec(spec, self.GRID).violations == (
            SpecViolation("involution", -2.0, detail.format(-3.0, -2.0)),
            SpecViolation("involution", -1.0, detail.format(-2.0, -1.0)),
            SpecViolation("involution", 1.0, detail.format(2.0, 1.0)),
            SpecViolation("involution", 2.0, detail.format(3.0, 2.0)),
        )

    def test_checks_at_one_score_keep_their_order(self):
        spec = DecisionSpec(s_star=0.0, confidence=np.abs, reflect=lambda s: -2.0 * s)
        symmetry = "confidence(reflect(s))=np.float64({}) != confidence(s)=np.float64({})"
        involution = "reflect(reflect(s))=np.float64({}) != s=np.float64({})"
        assert validate_decision_spec(spec, [-1.0, 0.0, 0.5]).violations == (
            SpecViolation("confidence-symmetry", -1.0, symmetry.format(2.0, 1.0)),
            SpecViolation("involution", -1.0, involution.format(-4.0, -1.0)),
            SpecViolation("confidence-symmetry", 0.5, symmetry.format(1.0, 0.5)),
            SpecViolation("involution", 0.5, involution.format(2.0, 0.5)),
        )

    def test_nonzero_minimum_is_pinned(self):
        spec = DecisionSpec(s_star=0.0, confidence=lambda s: np.abs(s) + 1.0, reflect=np.negative)
        assert validate_decision_spec(spec, self.GRID).violations == (
            SpecViolation("minimum-at-threshold", 0.0, "confidence(s_star) = np.float64(1.0), expected 0"),
        )

    def test_non_positive_confidence_away_is_pinned(self):
        # NaN at a duplicated point below the threshold, and 0 at the first
        # point past it; the zero is mirrored, so it breaks no symmetry
        spec = DecisionSpec(
            s_star=0.5,
            confidence=lambda s: np.where(s == -1.0, np.nan, np.where(np.abs(s - 0.5) == 0.25, 0.0, np.abs(s - 0.5))),
            reflect=lambda s: 1.0 - s,
        )
        away = "confidence = np.float64({}), expected > 0 away from s_star"
        below = "confidence must strictly decrease below s_star: f(np.float64({}))=np.float64({}), f(np.float64({}))=np.float64({})"
        symmetry = "confidence(reflect(s))=np.float64({}) != confidence(s)=np.float64({})"
        assert validate_decision_spec(spec, [-1.0, -1.0, 0.0, 0.5, 0.75, 1.0, 2.0]).violations == (
            SpecViolation("minimum-at-threshold", -1.0, away.format("nan")),
            SpecViolation("minimum-at-threshold", -1.0, away.format("nan")),
            SpecViolation("minimum-at-threshold", 0.75, away.format(0.0)),
            SpecViolation("bi-monotonic", -1.0, below.format(-1.0, "nan", -1.0, "nan")),
            SpecViolation("bi-monotonic", 0.0, below.format(-1.0, "nan", 0.0, 0.5)),
            SpecViolation("confidence-symmetry", -1.0, symmetry.format(1.5, "nan")),
            SpecViolation("confidence-symmetry", -1.0, symmetry.format(1.5, "nan")),
            SpecViolation("confidence-symmetry", 2.0, symmetry.format("nan", 1.5)),
        )

    def test_bi_monotonic_is_pinned(self):
        # symmetric but dipping at |s| = 2, and flat across a duplicate; the
        # pair that straddles s_star is not compared
        spec = DecisionSpec(
            s_star=0.0, confidence=lambda s: np.where(np.abs(s) == 2.0, 0.5, np.abs(s)), reflect=np.negative
        )
        below = "confidence must strictly decrease below s_star: f(np.float64({}))=np.float64({}), f(np.float64({}))=np.float64({})"
        above = "confidence must strictly increase above s_star: f(np.float64({}))=np.float64({}), f(np.float64({}))=np.float64({})"
        assert validate_decision_spec(spec, [-2.0, -1.0, -1.0, 0.0, 1.0, 2.0, 3.0]).violations == (
            SpecViolation("bi-monotonic", -1.0, below.format(-2.0, 0.5, -1.0, 1.0)),
            SpecViolation("bi-monotonic", -1.0, below.format(-1.0, 1.0, -1.0, 1.0)),
            SpecViolation("bi-monotonic", 2.0, above.format(1.0, 1.0, 2.0, 0.5)),
        )

    def test_sign_flip_is_pinned(self):
        # identity away from 2.0, which lands on s_star itself
        spec = DecisionSpec(s_star=0.0, confidence=np.abs, reflect=lambda s: np.where(s == 2.0, 0.0, s))
        flip = "reflect(s)=np.float64({}) is not on the opposite side of s_star"
        assert validate_decision_spec(spec, [-1.0, 0.0, 1.0, 2.0]).violations == (
            SpecViolation("sign-flip", -1.0, flip.format(-1.0)),
            SpecViolation("sign-flip", 1.0, flip.format(1.0)),
            SpecViolation("confidence-symmetry", 2.0, "confidence(reflect(s))=np.float64(0.0) != confidence(s)=np.float64(2.0)"),
            SpecViolation("involution", 2.0, "reflect(reflect(s))=np.float64(0.0) != s=np.float64(2.0)"),
            SpecViolation("sign-flip", 2.0, flip.format(0.0)),
        )

    def test_overflow_is_reported_not_warned(self):
        # the grid's one step, 2e308, and the reflection of -1e308 overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = validate_decision_spec(make_abs_spec(1e308), [-1e308, 1e308])
        assert rep.violations == (SpecViolation("reflect-finite", -1e308, "reflect = np.float64(inf)"),)

    def test_grid_preconditions(self):
        spec = make_abs_spec(0.0)
        with pytest.raises(ValueError):
            validate_decision_spec(spec, [1.0, -1.0, 0.0])
        with pytest.raises(ValueError):
            validate_decision_spec(spec, [-1.0, 1.0])


def loop_validate_decision_spec(spec, grid):
    """Reference validator: the per-grid-point loops that the masks replaced.

    Kept verbatim, preconditions included, so that the whole-grid version can
    be compared with it violation for violation, detail text included.
    """
    grid_arr = np.array(grid, dtype=float)
    if len(grid_arr) == 0:
        raise ValueError("grid must be nonempty")
    if not np.all(np.isfinite(grid_arr)):
        raise ValueError("grid must be finite")
    if np.any(np.diff(grid_arr) < 0):
        raise ValueError("grid must be sorted ascending")
    if not np.any(grid_arr == spec.s_star):
        raise ValueError("grid must contain s_star")

    conf = spec.confidence_at(grid_arr)
    refl = spec.reflect_at(grid_arr)
    violations = []

    def close(a, b):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-12)

    for s, c in zip(grid_arr, conf):
        if s == spec.s_star:
            if c != 0.0:
                violations.append(
                    SpecViolation("minimum-at-threshold", float(s), f"confidence(s_star) = {c!r}, expected 0")
                )
        elif not c > 0.0:
            violations.append(
                SpecViolation("minimum-at-threshold", float(s), f"confidence = {c!r}, expected > 0 away from s_star")
            )

    below = grid_arr < spec.s_star
    above = grid_arr > spec.s_star
    bs, bc = grid_arr[below], conf[below]
    for i in range(1, len(bs)):
        if not bc[i] < bc[i - 1]:
            violations.append(
                SpecViolation(
                    "bi-monotonic",
                    float(bs[i]),
                    f"confidence must strictly decrease below s_star: f({bs[i - 1]!r})={bc[i - 1]!r}, f({bs[i]!r})={bc[i]!r}",
                )
            )
    as_, ac = grid_arr[above], conf[above]
    for i in range(1, len(as_)):
        if not ac[i] > ac[i - 1]:
            violations.append(
                SpecViolation(
                    "bi-monotonic",
                    float(as_[i]),
                    f"confidence must strictly increase above s_star: f({as_[i - 1]!r})={ac[i - 1]!r}, f({as_[i]!r})={ac[i]!r}",
                )
            )

    conf_of_refl = spec.confidence_at(refl)
    refl_of_refl = spec.reflect_at(refl)
    for s, c, r, cr, rr in zip(grid_arr, conf, refl, conf_of_refl, refl_of_refl):
        if not math.isfinite(r):
            violations.append(SpecViolation("reflect-finite", float(s), f"reflect = {r!r}"))
            continue
        if s == spec.s_star:
            if r != spec.s_star:
                violations.append(
                    SpecViolation("fixed-point", float(s), f"reflect(s_star) = {r!r}, expected s_star")
                )
            continue
        if not close(cr, c):
            violations.append(
                SpecViolation("confidence-symmetry", float(s), f"confidence(reflect(s))={cr!r} != confidence(s)={c!r}")
            )
        if not close(rr, s):
            violations.append(
                SpecViolation("involution", float(s), f"reflect(reflect(s))={rr!r} != s={s!r}")
            )
        if math.copysign(1.0, r - spec.s_star) == math.copysign(1.0, s - spec.s_star) or r == spec.s_star:
            violations.append(
                SpecViolation("sign-flip", float(s), f"reflect(s)={r!r} is not on the opposite side of s_star")
            )

    return SpecValidationReport(tuple(violations))


def _corpus_confidence(kind, a, pick, eps):
    if kind == "abs":
        return lambda s: np.abs(s - a)
    if kind == "asymmetric":
        return lambda s: np.where(s > a, 2.0 * (s - a), a - s)
    if kind == "nearly-symmetric":
        return lambda s: np.where(s > a, (s - a) * (1.0 + eps), a - s)
    if kind == "floor":
        return lambda s: np.floor(np.abs(s - a))
    if kind == "shifted":
        return lambda s: np.abs(s - a) + 0.25
    if kind in ("inf", "nan"):
        bad = np.inf if kind == "inf" else np.nan
        return lambda s: np.where(s == pick, bad, np.abs(s - a))
    raise AssertionError(kind)


def _corpus_reflect(kind, a, pick, eps):
    if kind == "mirror":
        return lambda s: a - (s - a)
    if kind == "off-by-eps":
        return lambda s: (a - (s - a)) * (1.0 + eps)
    if kind == "non-involutive":
        return lambda s: a - 2.0 * (s - a)
    if kind == "moved-fixed-point":
        return lambda s: np.where(s == a, a + 0.5, a - (s - a))
    if kind == "identity":
        return lambda s: s + 0.0
    if kind == "onto-threshold":
        return lambda s: np.where(s == pick, a, a - (s - a))
    if kind in ("inf", "nan"):
        bad = -np.inf if kind == "inf" else np.nan
        return lambda s: np.where(s == pick, bad, a - (s - a))
    raise AssertionError(kind)


_CONFIDENCE_KINDS = ("abs", "asymmetric", "nearly-symmetric", "floor", "shifted", "inf", "nan")
_REFLECT_KINDS = ("mirror", "off-by-eps", "non-involutive", "moved-fixed-point", "identity", "onto-threshold", "inf", "nan")


def spec_corpus(seed):
    """One seeded (spec, grid) case of the validator corpus."""
    rng = np.random.default_rng(seed)
    a = float(rng.choice([0.0, 0.5, -3.0]))
    points = a + np.round(rng.uniform(-1.0, 1.0, int(rng.integers(1, 25))) * rng.choice([1.0, 4.0, 1e3]), 1)
    if rng.random() < 0.1:
        points = np.append(points, [-1e308, 1e308])
    grid = np.sort(np.concatenate((points, [a], rng.choice(points, int(rng.integers(0, 4))))))
    pick = float(rng.choice(grid))
    eps = int(rng.integers(-12, 13)) * 1e-13  # both sides of a 1e-12 tolerance
    conf_kind = _CONFIDENCE_KINDS[int(rng.integers(len(_CONFIDENCE_KINDS)))]
    refl_kind = _REFLECT_KINDS[int(rng.integers(len(_REFLECT_KINDS)))]
    spec = DecisionSpec(a, _corpus_confidence(conf_kind, a, pick, eps), _corpus_reflect(refl_kind, a, pick, eps))
    return spec, grid, (conf_kind, refl_kind)


def _outcome(validate, spec, grid):
    try:
        return validate(spec, grid).violations
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


class TestValidatorReference:
    """The whole-grid validator matches the per-point loops it replaced."""

    @staticmethod
    def reference(spec, grid):
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)
            return _outcome(loop_validate_decision_spec, spec, grid)

    @staticmethod
    def current(spec, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return _outcome(validate_decision_spec, spec, grid)

    def test_matches_loops_on_seeded_corpus(self):
        seen = set()
        near = {"clean": 0, "flagged": 0}
        for seed in range(520):
            spec, grid, kinds = spec_corpus(seed)
            expected = self.reference(spec, grid)
            assert self.current(spec, grid) == expected, (seed, kinds)
            seen.update(v.check for v in expected)
            if kinds[1] == "off-by-eps":
                near["flagged" if any(v.check == "involution" for v in expected) else "clean"] += 1
        assert seen == {
            "minimum-at-threshold", "bi-monotonic", "reflect-finite", "fixed-point",
            "confidence-symmetry", "involution", "sign-flip",
        }
        assert near["clean"] > 0 and near["flagged"] > 0, near

    @pytest.mark.parametrize("stretch", [1.0 + 1e-13, 2.0])
    @pytest.mark.parametrize("grid", [[0.0], [-0.0, 0.0], [-1.0, 0.0, 1.0]])
    @pytest.mark.parametrize(
        "rel_tol,abs_tol", [(-1.0, 1e-12), (1e-12, -1.0), (0.0, 0.0), (np.nan, 1e-12), (np.inf, 0.0), (0.5, 0.0)]
    )
    def test_matches_loops_on_odd_tolerances(self, grid, rel_tol, abs_tol, stretch):
        # the tolerances are fixed at 1e-12, so each odd pair is refused as a
        # keyword; on the same spec the validator still matches the loops, and
        # a stretch of 1 + 1e-13 stays within the fixed tolerance while 2 does not
        spec = DecisionSpec(0.0, np.abs, lambda s: -s * stretch)
        for name, value in (("rel_tol", rel_tol), ("abs_tol", abs_tol)):
            with pytest.raises(TypeError, match=name):
                validate_decision_spec(spec, grid, **{name: value})
        expected = self.reference(spec, grid)
        assert self.current(spec, grid) == expected
        nonzero = any(s != 0.0 for s in grid)
        assert any(v.check == "involution" for v in expected) == (nonzero and stretch == 2.0)


class TestRankByConfidence:
    def test_worked_example_order(self, d0, spec0):
        view = rank_by_confidence(d0, spec0)
        assert d0.scores[view.order].tolist() == [-4.0, -3.0, 2.0, 1.0]
        assert view.correct.astype(int).tolist() == [1, 0, 1, 0]
        assert view.cum_weight.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert view.group_ends.tolist() == [1, 2, 3, 4]

    def test_tied_confidences_form_one_group(self, tie_pair, spec0):
        view = rank_by_confidence(tie_pair, spec0)
        assert view.group_ends.tolist() == [2]

    def test_singleton(self, spec0):
        view = rank_by_confidence(Dataset([3.0], [1]), spec0)
        assert view.order.tolist() == [0]
        assert view.correct.tolist() == [True]

    def test_empty_dataset_rejected(self, spec0):
        with pytest.raises(EmptyDatasetError):
            rank_by_confidence(Dataset([], []), spec0)

    def test_non_finite_confidence_rejected(self, d0):
        spec = DecisionSpec(
            s_star=0.0, confidence=lambda s: np.full_like(s, np.nan), reflect=lambda s: -s
        )
        with pytest.raises(ValueError, match="non-finite"):
            rank_by_confidence(d0, spec)

    def test_overflowing_confidence_is_typed(self):
        # |1e308 - (-1e308)| overflows: a data error, not a usage error
        spec = make_abs_spec(-1e308)
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteMapError, match="non-finite"):
                rank_by_confidence(Dataset([1e308, -2.0], [1, 0]), spec)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 2, 3])
    def test_one_non_finite_confidence_rejected(self, d0, bad, at):
        # one bad value among finite ones, wherever the descending sort puts it
        def confidence(s):
            out = np.abs(s)
            out[at] = bad
            return out

        spec = DecisionSpec(s_star=0.0, confidence=confidence, reflect=lambda s: -s)
        with pytest.raises(ValueError, match="non-finite"):
            rank_by_confidence(d0, spec)

    def test_scalar_only_map_rejected(self, d0):
        spec = DecisionSpec(s_star=0.0, confidence=lambda s: math.fabs(s), reflect=lambda s: -s)
        with pytest.raises(TypeError):
            rank_by_confidence(d0, spec)
        spec = DecisionSpec(s_star=0.0, confidence=lambda s: math.nan, reflect=lambda s: -s)
        with pytest.raises(ValueError, match="vectorized"):
            rank_by_confidence(d0, spec)

    def test_canonical_under_input_permutation(self, spec0):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = random_dataset(rng, int(rng.integers(2, 30)))
            perm = rng.permutation(len(d))
            shuffled = Dataset(d.scores[perm], d.labels[perm], d.weights[perm])
            a = rank_by_confidence(d, spec0)
            b = rank_by_confidence(shuffled, spec0)
            assert np.array_equal(d.scores[a.order], shuffled.scores[b.order])
            assert np.array_equal(a.correct, b.correct)
            assert np.array_equal(a.cum_weight, b.cum_weight)
            assert np.array_equal(a.group_ends, b.group_ends)

    def test_cum_weight_strictly_increasing(self, spec0):
        rng = np.random.default_rng(8)
        d = random_dataset(rng, 64)
        view = rank_by_confidence(d, spec0)
        assert np.all(np.diff(view.cum_weight) > 0)


_VIEW_FIELDS = (
    "order",
    "correct",
    "weight",
    "cum_weight",
    "cum_correct_weight",
    "group_ends",
)


def lexsort_view(dataset, spec):
    """Reference ranking: one 5-key lexsort over every sample.

    Descending confidence, then wrong before right, light before heavy, low
    score before high, label 0 before 1, and dataset position last.
    """
    conf = spec.confidence_at(dataset.scores)
    correct = (dataset.scores > spec.s_star) == dataset.labels.astype(bool)
    order = np.lexsort((dataset.labels, dataset.scores, dataset.weights, correct, -conf))
    conf_r = conf[order]
    weight = dataset.weights[order]
    correct_r = correct[order]
    breaks = np.nonzero(conf_r[1:] != conf_r[:-1])[0] + 1
    return {
        "order": order,
        "correct": correct_r,
        "weight": weight,
        "cum_weight": np.cumsum(weight),
        "cum_correct_weight": np.cumsum(weight * correct_r),
        "group_ends": np.concatenate((breaks, [len(conf_r)])),
    }


def _oracle_dataset(kind, n, seed):
    rng = np.random.default_rng(seed)
    scores = rng.uniform(-1.0, 1.0, n)
    labels = rng.integers(0, 2, n)
    if kind == "continuous":
        return Dataset(scores, labels, rng.uniform(0.05, 2.0, n))
    if kind == "tied":
        # two decimals: about 100 tie groups, and rows at the threshold
        return Dataset(np.round(scores, 2), labels, rng.uniform(0.05, 2.0, n))
    if kind == "duplicate-rows":
        pool = np.round(rng.uniform(-1.0, 1.0, 12), 1)
        rows = rng.integers(0, len(pool), n)
        return Dataset(pool[rows], rows % 2)
    if kind == "random-weights":
        # few distinct weights, so equal-weight ties span both sides
        return Dataset(np.round(scores, 1), labels, rng.choice([0.5, 1.0, 1.5, 2.0], n))
    raise AssertionError(kind)


class TestRankingOracle:
    """The ranking is the 5-key lexsort's, array for array and bit for bit."""

    def assert_matches(self, dataset, spec):
        view = rank_by_confidence(dataset, spec)
        expected = lexsort_view(dataset, spec)
        for field in _VIEW_FIELDS:
            got = getattr(view, field)
            assert got.dtype == expected[field].dtype, field
            assert got.tobytes() == expected[field].tobytes(), field

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 300, 5000])
    @pytest.mark.parametrize("kind", ["continuous", "tied", "duplicate-rows", "random-weights"])
    def test_matches_lexsort(self, kind, n, spec0):
        for seed in range(3):
            self.assert_matches(_oracle_dataset(kind, n, seed), spec0)

    def test_matches_lexsort_with_signed_zero_confidence(self):
        # a map that breaks the contract by being zero on [-1, 1] puts -0.0
        # and 0.0 in one tie group, with one score on each side
        spec = DecisionSpec(
            s_star=0.0,
            confidence=lambda s: np.where(np.abs(s) <= 1.0, np.copysign(0.0, s), np.abs(s)),
            reflect=lambda s: -s,
        )
        for perm in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
            scores = np.array([-3.0, -1.0, 1.0, 2.0])[perm]
            self.assert_matches(Dataset(scores, (scores > 0).astype(int)), spec)

    def test_matches_lexsort_at_probability_threshold(self):
        rng = np.random.default_rng(11)
        p = np.round(rng.uniform(0.0, 1.0, 2000), 2)
        d = Dataset(p, rng.integers(0, 2, 2000), rng.choice([0.25, 1.0, 4.0], 2000))
        self.assert_matches(d, make_abs_spec(0.5))

    @pytest.mark.parametrize("weighted", [False, True], ids=["uniform", "weighted"])
    @pytest.mark.parametrize("decimals,n", [(4, 20_000), (6, 150_000)], ids=["256+groups", "65536+groups"])
    def test_matches_lexsort_with_many_tie_groups(self, decimals, n, weighted, spec0):
        # group indices past 255 and past 65535 need wider integer keys
        rng = np.random.default_rng(12)
        scores = np.round(rng.uniform(-1.0, 1.0, n), decimals)
        weights = rng.uniform(0.05, 2.0, n) if weighted else None
        d = Dataset(scores, rng.integers(0, 2, n), weights)
        view = rank_by_confidence(d, spec0)
        assert len(view.group_ends) > (256 if decimals == 4 else 65536)
        assert np.any(np.diff(view.group_ends) > 1)
        self.assert_matches(d, spec0)
