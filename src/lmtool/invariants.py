"""Hilbert sequences, Euler-characteristic fits, and the invariant checks.

The numerical invariants of a subspace spec V:

  * p_D -- the stable value of p(k) = dim A_k - dim End_k, where End is the
    endomorphism ring of the ideal attached to V (weight-independent);
  * n -- the constant term of the quadratic fit h(k) = (k+a+1)(k+a+2)/2 - n
    to the Hilbert sequence of the ideal at weight (1,1), with a an integer
    shift absorbing the choice of embedding;
  * the headline identity p_D = 2n, its relative version p_12 = n_1 + n_2
    for hom spaces between two ideals, and the dual identity (the fit
    constant of Hom(M, A) equals n).

A Hilbert sequence is read at weight (1,1) for k = 0..kmax.  All fits
require a run of exactly matching tail entries before they are trusted: two
entries pin (shift, constant) and at least three more must confirm them, so
a fit needs a window of five.  A p-sequence is trusted once its last three
entries agree.  Anything shorter, a tail that fits no quadratic of the
family, and a negative fit constant (n >= 0 for every V) all raise
NotStabilizedError, the one error a verb stops with, which lmtool.cli
surfaces as "raise kmax".

Each verb reads every sequence it needs once and fits it once: the End
sequence of verify_lm_chern gives both its p-sequence and its fit,
full_report fits the dual sequence itself against the n it already has, and
weight_independence is weights_report in the shape the benchmark reads.

Every verb returns a frozen Report; this module renders nothing, and
lmtool.cli turns reports into JSON, CSV and text.
"""

from __future__ import annotations

from collections.abc import Sequence

from .graded import column_counts, gr_inclusion_check, hom_dims, module_dims
from .record import Record
from .subspace import SubspaceSpec
from .weyl import Weight

W11 = Weight(1, 1)
DEFAULT_WEIGHTS = (Weight(1, 1), Weight(1, 2), Weight(2, 1), Weight(2, 3))

_STABLE_WINDOW = 5  # 2 anchors + 3 confirmations
KMAX_LIMIT = 200  # cost grows steeply with kmax; larger values are refused
_TWO_WEIGHTS = "weight independence needs at least two weights"


class NotStabilizedError(RuntimeError):
    """The sequence has not reached its eventual quadratic, its tail fits no
    quadratic of the Euler family, or its fit constant is negative; raise kmax."""


HilbertSource = SubspaceSpec | tuple[SubspaceSpec, SubspaceSpec]


class HilbertSeq(Record):
    """Dimensions of filtered pieces at weight (1,1) for k = 0 .. len(values) - 1."""

    __slots__ = ("source", "values")


class FitResult(Record):
    """Exact fit h(k) = (k+shift+1)(k+shift+2)/2 - constant on the window."""

    __slots__ = ("shift", "constant", "window")

    def predicted(self, k: int) -> int:
        return (k + self.shift + 1) * (k + self.shift + 2) // 2 - self.constant


def hilbert_seq(source: HilbertSource, kmax: int) -> HilbertSeq:
    """Hilbert sequence of a spec's ideal or of a hom space (pair)."""
    if isinstance(source, SubspaceSpec):
        return HilbertSeq(f"module({source.name})", tuple(module_dims(source, W11, kmax)))
    src, dst = source
    return HilbertSeq(f"hom({src.name},{dst.name})", tuple(hom_dims(src, dst, W11, kmax)))


def fit_euler(h: HilbertSeq) -> FitResult:
    """Fit the tail of a Hilbert sequence to (k+a+1)(k+a+2)/2 - c.

    The last two values determine (a, c); the window is the maximal exact
    suffix.  Raises NotStabilizedError when the window is shorter than five
    entries or when even the last three values lie on no quadratic of the
    family.
    """
    vals = h.values
    if len(vals) < _STABLE_WINDOW:
        raise NotStabilizedError(
            f"{h.source}: need at least {_STABLE_WINDOW} values to fit, got {len(vals)}"
        )
    if any(vals[i + 1] < vals[i] for i in range(len(vals) - 1)):
        raise NotStabilizedError(f"{h.source}: sequence of dimensions is not non-decreasing")
    if vals[-1] - 2 * vals[-2] + vals[-3] != 1:
        raise NotStabilizedError(
            f"{h.source}: tail {vals[-3:]} fits no Euler quadratic "
            "(second difference is not 1); a larger kmax may stabilize it"
        )
    k_top = len(vals) - 1
    shift = vals[-1] - vals[-2] - k_top - 1
    constant = (k_top + shift + 1) * (k_top + shift + 2) // 2 - vals[-1]
    fit = FitResult(shift, constant, (k_top, k_top))
    k0 = k_top
    while k0 > 0 and vals[k0 - 1] == fit.predicted(k0 - 1):
        k0 -= 1
    length = k_top - k0 + 1
    if length < _STABLE_WINDOW:
        raise NotStabilizedError(
            f"{h.source}: fit window [{k0},{k_top}] has only {length} entries; raise kmax"
        )
    return FitResult(shift, constant, (k0, k_top))


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def _p_sequence(spec: SubspaceSpec, weight: Weight, kmax: int, dims: Sequence[int]) -> tuple[int, ...]:
    """p(k) = dim A_k - dim End_k from the End dimensions; requires the last
    three entries to agree."""
    p = tuple(a - d for a, d in zip(column_counts(weight, kmax), dims))
    if not (p[-1] == p[-2] == p[-3]):
        raise NotStabilizedError(
            f"p-sequence for {spec.name} at {weight} still moving: tail {p[-3:]}; raise kmax"
        )
    return p


def _check_kmax(kmax: int) -> None:
    """Every verb of ``lmtool.__all__`` refuses a kmax below 4 or above
    KMAX_LIMIT before it reads a sequence, as the CLI refuses such a --kmax."""
    if kmax < 4:
        raise ValueError("kmax must be >= 4")
    if kmax > KMAX_LIMIT:
        raise ValueError(f"kmax must be <= {KMAX_LIMIT}")


def lm_invariant(spec: SubspaceSpec, weight: Weight = W11, kmax: int = 12) -> Report:
    """p_D = lim dim A_k - dim End_k."""
    _check_kmax(kmax)
    dims = tuple(hom_dims(spec, spec, weight, kmax))
    p = _p_sequence(spec, weight, kmax, dims)
    return Report(
        name=spec.name, kmax=kmax, weight=weight, hilbert_D=dims,
        p_by_weight=((weight, p),), p_D=p[-1], warnings=spec.warnings,
    )


def chern_number(spec: SubspaceSpec, kmax: int = 12) -> Report:
    """Second invariant n of the ideal of V: shift-normalized fit constant of
    its Hilbert sequence at weight (1,1), refused when negative (n >= 0)."""
    _check_kmax(kmax)
    seq = hilbert_seq(spec, kmax)
    fit = fit_euler(seq)
    if fit.constant < 0:
        raise NotStabilizedError(f"{spec.name or seq.source}: fit constant {fit.constant} is negative")
    return Report(
        name=spec.name, kmax=kmax, hilbert_M=seq.values,
        shift_a=fit.shift, n=fit.constant, warnings=spec.warnings,
    )


def relative_invariant(src: SubspaceSpec, dst: SubspaceSpec, kmax: int = 12) -> Report:
    """Relative invariant of Hom(M_1, M_2) and the verdict p_12 = n_1 + n_2.
    Each spec's warnings are prefixed with its name, and a line repeated
    (the same spec twice) is kept once."""
    _check_kmax(kmax)
    seq = hilbert_seq((src, dst), kmax)
    fit = fit_euler(seq)
    n_1 = chern_number(src, kmax).n
    n_2 = chern_number(dst, kmax).n
    return Report(
        name=f"{src.name}->{dst.name}", kmax=kmax, hilbert_hom=seq.values,
        shift_a=fit.shift, p_12=fit.constant, n_1=n_1, n_2=n_2,
        verdicts={"relative": fit.constant == n_1 + n_2},
        warnings=tuple(dict.fromkeys(f"{s.name}: {w}" for s in (src, dst) for w in s.warnings)),
    )


def dual_check(spec: SubspaceSpec, kmax: int = 12) -> Report:
    """Fit Hom(M, A) and compare its constant with n."""
    _check_kmax(kmax)
    seq = hilbert_seq((spec, SubspaceSpec.trivial()), kmax)
    fit = fit_euler(seq)
    n = chern_number(spec, kmax).n
    return Report(
        name=spec.name, kmax=kmax, hilbert_dual=seq.values,
        shift_a=fit.shift, n=n, dual_constant=fit.constant,
        verdicts={"dual": fit.constant == n}, warnings=spec.warnings,
    )


def weights_report(spec: SubspaceSpec, weights: Sequence[Weight], kmax: int = 12) -> Report:
    """p_D at each of several weights, and whether they agree."""
    if len(set(weights)) < 2:  # a repeated weight compares nothing
        raise ValueError(_TWO_WEIGHTS)
    p_by_weight = tuple(lm_invariant(spec, w, kmax).p_by_weight[0] for w in weights)
    return Report(
        name=spec.name, kmax=kmax, weight=weights[0], weights=tuple(weights),
        p_by_weight=p_by_weight, p_D=p_by_weight[0][1][-1],
        verdicts={"weights": len({p[-1] for _, p in p_by_weight}) == 1},
        warnings=spec.warnings,
    )


class WeightIndependenceResult(Record):
    """weights_report in the shape the monomial-deep benchmark workload reads."""

    __slots__ = ("spec_name", "values", "p_sequences", "ok")


def weight_independence(
    spec: SubspaceSpec, weights: Sequence[Weight] = DEFAULT_WEIGHTS, kmax: int = 12
) -> WeightIndependenceResult:
    """p_D at each weight, and whether they agree (see weights_report)."""
    r = weights_report(spec, weights, kmax)
    values = tuple((w, p[-1]) for w, p in r.p_by_weight)
    return WeightIndependenceResult(spec.name, values, r.p_by_weight, r.ok)


def telescoping_check(spec: SubspaceSpec, weight: Weight = W11, kmax: int = 12) -> bool:
    """Partial sums of graded-piece dimensions must reproduce the filtered
    codimension at every level: sum_{i<=k} (gr A_i - gr End_i) = dim A_k - dim End_k
    for 0 <= k <= kmax, where gr X_i = dim X_i - dim X_{i-1} and dim A_{-1} = 0.

    The sum telescopes to dim A_k - dim End_k + dim End_{-1}, so the identity
    holds at every level exactly when End has no element of weighted degree
    below 0, i.e. when dim End_{-1} = 0."""
    return hom_dims(spec, spec, weight, kmax, kmin=-1)[0] == 0


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

class Report(Record):
    """What every verb returns; ``lmtool.cli`` renders it.  ``__slots__`` is
    the one table of output fields, in the order JSON, CSV and text print
    them.  ``name`` and ``kmax`` are required, ``weight`` defaults to (1,1),
    and a field a verb does not compute stays None.  ``d_fit`` is the
    (shift, constant) of the End fit.  Verdicts are read-only and
    recomputable from the embedded sequences.  ``elapsed_ms`` is set by the
    CLI under --timing only.  ``replace`` is the one way to change a field:
    it returns a copy."""

    __slots__ = ("name", "weight", "kmax", "weights", "hilbert_M", "hilbert_D", "hilbert_dual",
                 "hilbert_hom", "p_by_weight", "shift_a", "n", "p_D", "p_12", "n_1", "n_2",
                 "d_fit", "dual_constant", "verdicts", "warnings", "elapsed_ms")
    _defaults = {**dict.fromkeys(set(__slots__) - {"name", "kmax"}),
                 "weight": W11, "verdicts": {}, "warnings": ()}
    __hash__ = None  # verdicts is a mapping: reports compare by field but do not hash

    def replace(self, **changes: object) -> Report:
        """A copy with the named fields changed; this report is left as it is."""
        return Report(**dict(zip(self.__slots__, self._values()), **changes))

    @property
    def ok(self) -> bool:
        return all(self.verdicts.values())


def verify_lm_chern(spec: SubspaceSpec, kmax: int = 12) -> Report:
    """The headline check: p_D = 2n at weight (1,1), with the End-sequence fit
    cross-checked to have shift 0 and constant p_D.  The End sequence is read
    first: its build also caches the module tower that chern_number reads."""
    _check_kmax(kmax)
    end = hilbert_seq((spec, spec), kmax)
    ch = chern_number(spec, kmax)
    p = _p_sequence(spec, W11, kmax, end.values)
    d_fit = fit_euler(end)
    return ch.replace(
        hilbert_D=end.values,
        p_by_weight=((W11, p),),
        p_D=p[-1],
        d_fit=(d_fit.shift, d_fit.constant),
        verdicts={"t2": p[-1] == 2 * ch.n and d_fit.shift == 0 and d_fit.constant == p[-1]},
    )


def full_report(
    spec: SubspaceSpec,
    kmax: int = 12,
    weights: Sequence[Weight] = DEFAULT_WEIGHTS,
) -> Report:
    """Full verification: headline identity, dual fit, weight independence
    (at (1,1), where p_D is read, first if ``weights`` lacks it), graded
    inclusion at every level, and the telescoping identity."""
    _check_kmax(kmax)
    weights = weights if W11 in weights else (W11, *weights)
    if len(set(weights)) < 2:  # refused before any tower is built
        raise ValueError(_TWO_WEIGHTS)
    base = verify_lm_chern(spec, kmax)
    dual = hilbert_seq((spec, SubspaceSpec.trivial()), kmax)
    dual_fit = fit_euler(dual)
    wind = weights_report(spec, weights, kmax)
    gr_ok = all(
        gr_inclusion_check(spec, w, k) for w in weights for k in range(0, kmax + 1)
    )
    tel_ok = all(telescoping_check(spec, w, kmax) for w in weights)
    return base.replace(
        weights=tuple(weights),
        hilbert_dual=dual.values,
        p_by_weight=wind.p_by_weight,
        dual_constant=dual_fit.constant,
        verdicts={
            **base.verdicts,
            "dual": dual_fit.constant == base.n,
            "weights": wind.ok,
            "gr_inclusion": gr_ok,
            "telescoping": tel_ok,
        },
    )

