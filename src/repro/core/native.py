"""The native round kernel: a fused, buffer-reusing ensemble engine.

The batched engine (:mod:`repro.core.ensemble`) is pure numpy: every round
materialises an ``(R, S, S)`` switch-probability stack plus half a dozen
same-shaped temporaries, and its floor is numpy's per-call dispatch
overhead.  This module executes the same dynamics as one fused pass per
round — switch-probability evaluation, migration draws, and the migration
apply happen in a single sweep over the occupied (replica, origin) rows,
and no ``(R, S, S)`` tensor ever exists:

* games are lowered once to flat arrays (:func:`lower_game`): CSR-style
  incidence index arrays plus per-resource latency coefficients/value
  tables (:meth:`~repro.games.base.CongestionGame.kernel_latency_tables`);
* protocols are lowered to :class:`~repro.core.protocols.KernelComponents`
  — all of the paper's protocols (imitation in every variant, exploration,
  and their mixtures) share one component form;
* the hot loop runs as a numba ``@njit`` kernel when numba is importable
  and as a vectorised numpy implementation otherwise (same dynamics, same
  results up to the random stream — both are selected automatically, or
  explicitly via ``use_numba=``);
* retired replicas are compacted out of the working arrays in place each
  round (stable order, original indices preserved through an ``orig``
  index map), so a finished replica costs nothing;
* ``dtype="float32"`` switches every latency/probability buffer to single
  precision — halving the kernel's memory traffic for large games — while
  counts stay exact ``int64``.

Reproducibility contract (docs/ENGINE.md): the native backend is exactly
reproducible from its seed, but it draws each origin's migrations through a
sequential conditional-binomial decomposition of the multinomial rather
than numpy's stacked ``multinomial``.  The two samplers have identical
distributions yet different bit streams, so native agrees with loop/batch
in distribution and on every *deterministic* quantity (switch
probabilities, stop decisions, latencies — ``allclose``), not
sample-path-wise.  Fused stop conditions reproduce the batched stop
semantics exactly: the stop test runs on the pre-round state, then
quiescence, then the migration draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import EngineError, NativeBackendError
from ..games.base import CongestionGame
from ..rng import RngLike, ensure_rng
from .dynamics import StopReason
from .protocols import (
    KernelComponents,
    Protocol,
    component_switch_probabilities,
    tie_scale,
)

try:  # numba is optional: without it the vectorised numpy fallback runs
    import numba as _numba
    from numba import njit as _njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised on numba-free installs
    _numba = None
    _njit = None
    NUMBA_AVAILABLE = False

__all__ = [
    "NUMBA_AVAILABLE",
    "numba_version",
    "KernelGame",
    "lower_game",
    "lower_protocol",
    "lower_stop_condition",
    "run_native_ensemble",
]

#: Rounds advanced per kernel invocation when nothing (collector cadence,
#: observer, generic stop condition) forces a shorter synchronisation.
_DEFAULT_CHUNK = 512

#: Stop-kind codes shared by both kernel implementations.
_STOP_NONE = 0
_STOP_APPROX_EQ = 1
_STOP_IMITATION_STABLE = 2
_STOP_NASH = 3

#: Reason codes written by the kernels (mapped to StopReason at the end).
_REASON_MAX_ROUNDS = 0
_REASON_STOP = 1
_REASON_QUIESCENT = 2

_REASONS = {
    _REASON_MAX_ROUNDS: StopReason.MAX_ROUNDS,
    _REASON_STOP: StopReason.STOP_CONDITION,
    _REASON_QUIESCENT: StopReason.QUIESCENT,
}


def numba_version() -> Optional[str]:
    """Installed numba version, or ``None`` without numba."""
    return _numba.__version__ if NUMBA_AVAILABLE else None


# ----------------------------------------------------------------------
# Lowering
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class KernelGame:
    """A congestion game lowered to flat arrays for the fused kernel."""

    num_players: int
    num_strategies: int
    num_resources: int
    dtype: np.dtype
    # CSR incidence, both directions (see CongestionGame.kernel_incidence).
    strat_indptr: np.ndarray
    strat_indices: np.ndarray
    res_indptr: np.ndarray
    res_indices: np.ndarray
    # Latency lowering (see CongestionGame.kernel_latency_tables).
    lat_kind: np.ndarray
    poly_coeffs: np.ndarray
    lat_table: np.ndarray
    table_row: np.ndarray
    # Dense incidence in the working dtype (numpy-fallback matmuls).
    incidence: np.ndarray


def _resolve_dtype(dtype) -> np.dtype:
    resolved = np.dtype(dtype)
    if resolved not in (np.dtype(np.float64), np.dtype(np.float32)):
        raise EngineError(
            f"native backend supports dtype 'float64' or 'float32', "
            f"got {dtype!r}"
        )
    return resolved


def lower_game(game: CongestionGame, dtype="float64") -> KernelGame:
    """Lower ``game`` to the kernel representation (cheap; the underlying
    index/table arrays are cached on the game instance)."""
    resolved = _resolve_dtype(dtype)
    strat_indptr, strat_indices, res_indptr, res_indices = game.kernel_incidence()
    lat_kind, poly_coeffs, lat_table, table_row = game.kernel_latency_tables(resolved)
    return KernelGame(
        num_players=game.num_players,
        num_strategies=game.num_strategies,
        num_resources=game.num_resources,
        dtype=resolved,
        strat_indptr=strat_indptr,
        strat_indices=strat_indices,
        res_indptr=res_indptr,
        res_indices=res_indices,
        lat_kind=lat_kind,
        poly_coeffs=poly_coeffs,
        lat_table=lat_table,
        table_row=table_row,
        incidence=game.incidence.astype(resolved),
    )


def lower_protocol(protocol: Protocol, game: CongestionGame) -> KernelComponents:
    """Lower ``protocol`` or raise :class:`NativeBackendError` naming it."""
    components = protocol.kernel_components(game)
    if components is None:
        raise NativeBackendError(
            f"protocol {type(protocol).__name__} ({protocol.describe()}) has "
            f"no kernel lowering (kernel_components returned None); use "
            f"engine='batch' for bespoke protocols"
        )
    return components


def lower_stop_condition(stop_condition, game: CongestionGame
                         ) -> Optional[tuple[int, float, float, float]]:
    """Fused-stop parameters ``(kind, a, b, c)`` for a tagged batched stop
    condition, or ``None`` for a generic callable.

    The batched stop factories in :mod:`repro.core.ensemble` tag their
    closures with ``native_spec``; anything untagged is evaluated as
    ordinary Python between rounds (forcing per-round synchronisation).
    """
    spec = getattr(stop_condition, "native_spec", None)
    if spec is None:
        return None
    kind = spec[0]
    if kind == "approx_equilibrium":
        delta, epsilon, nu = spec[1:]
        bound = game.nu_bound if nu is None else float(nu)
        return (_STOP_APPROX_EQ, float(delta), float(epsilon), bound)
    if kind == "imitation_stable":
        (nu,) = spec[1:]
        bound = game.nu_bound if nu is None else float(nu)
        return (_STOP_IMITATION_STABLE, 0.0, 0.0, bound)
    if kind == "nash":
        (tolerance,) = spec[1:]
        return (_STOP_NASH, 0.0, 0.0, float(tolerance))
    raise NativeBackendError(f"unknown native stop spec {spec!r}")


# ----------------------------------------------------------------------
# Fused chunk kernel — loop form (numba-compiled when available)
# ----------------------------------------------------------------------

def _chunk_loops(counts, orig, num_active, round_start, num_rounds,
                 n_players, stop_quiescent,
                 s_indptr, s_indices, r_indptr, r_indices,
                 lat_kind, poly_coeffs, lat_table, table_row,
                 comp_w, comp_factor, comp_thresh, comp_kind, comp_virt, tie,
                 stop_kind, stop_a, stop_b, stop_c,
                 rounds_out, moves_out, reason_out, final_counts, last_moves,
                 loads, lat_now, lat_plus, strat_lat, joined, ov, prob, delta):
    """Advance up to ``num_rounds`` rounds over the first ``num_active``
    rows of ``counts`` in one fused pass per (replica, round).

    Returns ``(new_num_active, rounds_entered)``.  Retired rows are
    compacted out in place (stable order); all ``*_out`` arrays are indexed
    by original replica index through ``orig``.  The scratch arrays
    (``loads`` .. ``delta``) are preallocated by the caller and shared
    across replicas, so a chunk allocates nothing.
    """
    S = counts.shape[1]
    m = lat_kind.shape[0]
    C = comp_w.shape[0]
    K = poly_coeffs.shape[1]
    A = num_active
    entered = 0
    for round_index in range(round_start, round_start + num_rounds):
        if A == 0:
            break
        entered += 1
        write = 0
        for i in range(A):
            oi = orig[i]
            # ---- resource loads -------------------------------------
            for e in range(m):
                loads[e] = 0
            for p in range(S):
                c = counts[i, p]
                if c > 0:
                    for idx in range(s_indptr[p], s_indptr[p + 1]):
                        loads[s_indices[idx]] += c
            # ---- resource latencies at x and x+1 --------------------
            for e in range(m):
                if lat_kind[e] == 0:
                    x = float(loads[e])
                    v0 = float(poly_coeffs[e, 0])
                    v1 = float(poly_coeffs[e, 0])
                    for k in range(1, K):
                        v0 = v0 * x + poly_coeffs[e, k]
                        v1 = v1 * (x + 1.0) + poly_coeffs[e, k]
                    lat_now[e] = v0
                    lat_plus[e] = v1
                else:
                    t = table_row[e]
                    lat_now[e] = lat_table[t, loads[e]]
                    lat_plus[e] = lat_table[t, loads[e] + 1]
            # ---- strategy latencies l_P(x) and l_P(x + 1_P) ---------
            for p in range(S):
                s0 = 0.0
                s1 = 0.0
                for idx in range(s_indptr[p], s_indptr[p + 1]):
                    e = s_indices[idx]
                    s0 += lat_now[e]
                    s1 += lat_plus[e]
                strat_lat[p] = s0
                joined[p] = s1
            # ---- fused stop condition (pre-round state) -------------
            stopped = False
            if stop_kind == 1:  # approx equilibrium (Definition 1)
                avg = 0.0
                avg_plus = 0.0
                for p in range(S):
                    cf = float(counts[i, p])
                    avg += cf * strat_lat[p]
                    avg_plus += cf * joined[p]
                avg /= n_players
                avg_plus /= n_players
                unsat = 0.0
                for p in range(S):
                    lp = strat_lat[p]
                    if (lp > (1.0 + stop_b) * avg_plus + stop_c
                            or lp < (1.0 - stop_b) * avg - stop_c):
                        unsat += float(counts[i, p])
                stopped = unsat / n_players <= stop_a
            elif stop_kind == 2 or stop_kind == 3:
                # Early-exit scan: the first pair gaining more than the
                # bound disproves stability, so non-final rounds are cheap.
                stopped = True
                for p in range(S):
                    if counts[i, p] <= 0:
                        continue
                    for q in range(S):
                        ov[q] = 0.0
                    for idx in range(s_indptr[p], s_indptr[p + 1]):
                        e = s_indices[idx]
                        mg = lat_plus[e] - lat_now[e]
                        for j in range(r_indptr[e], r_indptr[e + 1]):
                            ov[r_indices[j]] += mg
                    lp = strat_lat[p]
                    for q in range(S):
                        if q == p:
                            continue
                        if stop_kind == 2 and counts[i, q] <= 0:
                            continue
                        gain = lp - (joined[q] - ov[q])
                        if gain > stop_c:
                            stopped = False
                            break
                    if not stopped:
                        break
            if stopped:
                reason_out[oi] = 1
                for q in range(S):
                    final_counts[oi, q] = counts[i, q]
                continue
            # ---- probabilities + migration draws per occupied origin
            any_positive = False
            moved = 0
            for q in range(S):
                delta[q] = 0
            for p in range(S):
                c_p = counts[i, p]
                if c_p <= 0:
                    continue
                # overlap(P, Q) = sum_{e in P} marginal_e * [e in Q],
                # scattered over the users of each resource of P.
                for q in range(S):
                    ov[q] = 0.0
                for idx in range(s_indptr[p], s_indptr[p + 1]):
                    e = s_indices[idx]
                    mg = lat_plus[e] - lat_now[e]
                    for j in range(r_indptr[e], r_indptr[e + 1]):
                        ov[r_indices[j]] += mg
                # The loop form of protocols.component_switch_probabilities
                # (same tie floor, same component order).
                lp = strat_lat[p]
                floor = tie * lp
                row_sum = 0.0
                for q in range(S):
                    if q == p:
                        prob[q] = 0.0
                        continue
                    gain = lp - (joined[q] - ov[q])
                    rel = gain / lp if lp > 0.0 else 0.0
                    pq = 0.0
                    for c in range(C):
                        if gain > comp_thresh[c] + floor:
                            mu = comp_factor[c] * rel
                            if mu < 0.0:
                                mu = 0.0
                            elif mu > 1.0:
                                mu = 1.0
                            if comp_kind[c] == 0:
                                term = mu * ((float(counts[i, q]) + comp_virt[c])
                                             / (n_players + comp_virt[c] * S))
                            else:
                                term = mu / S
                            pq += comp_w[c] * term
                    prob[q] = pq
                    row_sum += pq
                if row_sum <= 0.0:
                    continue
                any_positive = True
                # Multinomial over destinations as a conditional-binomial
                # chain (identical distribution, different bit stream than
                # numpy's stacked multinomial — the native parity tier).
                remaining = c_p
                rem_p = 1.0
                for q in range(S):
                    pq = prob[q]
                    if pq <= 0.0:
                        continue
                    if remaining <= 0 or rem_p <= 0.0:
                        break
                    cond = pq / rem_p
                    if cond > 1.0:
                        cond = 1.0
                    k = np.random.binomial(remaining, cond)  # lint: disable=DET002 -- numba nopython RNG, seeded per chunk by _seed_loops
                    if k > 0:
                        delta[q] += k
                        delta[p] -= k
                        moved += k
                        remaining -= k
                    rem_p -= pq
            if not any_positive and stop_quiescent:
                reason_out[oi] = 2
                for q in range(S):
                    final_counts[oi, q] = counts[i, q]
                continue
            # ---- apply + stable in-place compaction -----------------
            for q in range(S):
                counts[write, q] = counts[i, q] + delta[q]
            orig[write] = oi
            rounds_out[oi] = round_index + 1
            moves_out[oi] += moved
            last_moves[oi] = moved
            write += 1
        A = write
    return A, entered


def _seed_loops(seed):
    """Seed the (numba-internal) RNG the loop kernel draws from.

    Inside an ``@njit`` function numba replaces ``np.random`` with its own
    thread-local generator — the module-level numpy stream is untouched,
    and the jitted kernels have no other RNG API available.  The engine
    seeds every chunk explicitly, so determinism holds; the lint
    suppressions record that this is the sanctioned exception.
    """
    np.random.seed(seed)  # lint: disable=DET002 -- numba-internal RNG, explicitly seeded per chunk


if NUMBA_AVAILABLE:  # compile lazily on first call, per dtype signature
    _chunk_loops_jit = _njit(cache=False)(_chunk_loops)
    _seed_loops_jit = _njit(cache=False)(_seed_loops)
else:  # pragma: no cover - numba-free installs use the numpy chunk only
    _chunk_loops_jit = None
    _seed_loops_jit = None


# ----------------------------------------------------------------------
# Fused chunk kernel — vectorised numpy form (the fallback)
# ----------------------------------------------------------------------

def _eval_latencies_numpy(loads_f, loads_i, kg: KernelGame, poly_cols,
                          table_cols, shift: float):
    """Latency matrix at ``loads + shift`` (shift 0 or 1), shape (A, m)."""
    out = np.empty(loads_f.shape, dtype=kg.dtype)
    if poly_cols.size:
        x = loads_f[:, poly_cols] + kg.dtype.type(shift)
        acc = np.broadcast_to(kg.poly_coeffs[poly_cols, 0],
                              x.shape).astype(kg.dtype)
        for k in range(1, kg.poly_coeffs.shape[1]):
            acc = acc * x + kg.poly_coeffs[poly_cols, k]
        out[:, poly_cols] = acc
    if table_cols.size:
        rows = kg.table_row[table_cols]
        out[:, table_cols] = kg.lat_table[rows[np.newaxis, :],
                                          loads_i[:, table_cols] + int(shift)]
    return out


def _chunk_numpy(counts, orig, num_active, round_start, num_rounds,
                 kg: KernelGame, kp: KernelComponents,
                 stop_kind, stop_a, stop_b, stop_c, stop_quiescent,
                 gen: np.random.Generator,
                 rounds_out, moves_out, reason_out, final_counts, last_moves):
    """Vectorised sibling of :func:`_chunk_loops`: same contract, same
    dynamics, one Python iteration per round instead of per element."""
    S = kg.num_strategies
    n = float(kg.num_players)
    dtype = kg.dtype
    poly_cols = np.nonzero(kg.lat_kind == 0)[0]
    table_cols = np.nonzero(kg.lat_kind == 1)[0]
    inc = kg.incidence  # (S, m) in the working dtype
    inc_t = inc.T
    A = num_active
    entered = 0
    for round_index in range(round_start, round_start + num_rounds):
        if A == 0:
            break
        entered += 1
        ca = counts[:A]
        loads_f = ca.astype(dtype) @ inc  # exact: integer-valued, < 2**24
        loads_i = (np.rint(loads_f).astype(np.int64) if table_cols.size
                   else loads_f)  # int loads only needed for table lookups
        lat_now = _eval_latencies_numpy(loads_f, loads_i, kg, poly_cols,
                                        table_cols, 0.0)
        lat_plus = _eval_latencies_numpy(loads_f, loads_i, kg, poly_cols,
                                         table_cols, 1.0)
        strat_lat = lat_now @ inc_t  # (A, S)
        joined = lat_plus @ inc_t
        marginal = lat_plus - lat_now

        occupied = ca > 0
        rows_a, rows_p = np.nonzero(occupied)
        overlap = (inc[rows_p] * marginal[rows_a]) @ inc_t  # (O, S)
        post = joined[rows_a] - overlap
        origin_lat = strat_lat[rows_a, rows_p]
        gains = origin_lat[:, np.newaxis] - post  # (O, S)

        # ---- fused stop condition (pre-round state) -----------------
        if stop_kind == _STOP_APPROX_EQ:
            caf = ca.astype(dtype)
            avg = (caf * strat_lat).sum(axis=1) / n
            avg_plus = (caf * joined).sum(axis=1) / n
            deviating = ((strat_lat > (1.0 + stop_b) * avg_plus[:, np.newaxis]
                          + stop_c)
                         | (strat_lat < (1.0 - stop_b) * avg[:, np.newaxis]
                            - stop_c))
            unsat = np.where(deviating, ca, 0).sum(axis=1) / n
            stopped = unsat <= stop_a
        elif stop_kind in (_STOP_IMITATION_STABLE, _STOP_NASH):
            violating = gains > stop_c
            dest = np.arange(S)[np.newaxis, :]
            violating &= dest != rows_p[:, np.newaxis]
            if stop_kind == _STOP_IMITATION_STABLE:
                violating &= occupied[rows_a]
            stopped = np.ones(A, dtype=bool)
            stopped[rows_a[violating.any(axis=1)]] = False
        else:
            stopped = np.zeros(A, dtype=bool)

        # ---- probabilities for rows of still-running replicas -------
        row_sel = np.nonzero(~stopped[rows_a])[0]
        ra = rows_a[row_sel]
        rp = rows_p[row_sel]
        prob = component_switch_probabilities(
            kp, gains[row_sel], origin_lat[row_sel, np.newaxis], ca[ra], n)
        prob[np.arange(row_sel.size), rp] = 0.0
        row_sum = prob.sum(axis=1)
        has_move = row_sum > 0

        quiet = ~stopped
        quiet[ra[has_move]] = False  # running replica with a live row

        # ---- stacked migration draws --------------------------------
        delta = np.zeros((A, S), dtype=np.int64)
        moved = np.zeros(A, dtype=np.int64)
        mover_rows = np.nonzero(has_move)[0]
        if mover_rows.size:
            mra = ra[mover_rows]
            mrp = rp[mover_rows]
            # Draw probabilities in float64 regardless of the working dtype
            # (multinomial p-vectors must sum to 1 to float64 tolerance).
            pvals = np.empty((mover_rows.size, S + 1), dtype=np.float64)
            pvals[:, :S] = prob[mover_rows]
            pvals[:, S] = np.maximum(0.0, 1.0 - row_sum[mover_rows])
            np.clip(pvals, 0.0, None, out=pvals)
            pvals /= pvals.sum(axis=1, keepdims=True)
            draws = gen.multinomial(ca[mra, mrp], pvals)
            draws[np.arange(mover_rows.size), mrp] = 0  # P -> P stays
            departures = draws[:, :S].sum(axis=1)
            np.add.at(delta, mra, draws[:, :S])
            np.subtract.at(delta, (mra, mrp), departures)
            np.add.at(moved, mra, departures)

        # ---- apply, bookkeeping, retire + compact -------------------
        retire = stopped | (quiet if stop_quiescent else False)
        executed = ~retire
        ca += delta  # retired rows have all-zero delta rows
        oi = orig[:A]
        executors = oi[executed]
        rounds_out[executors] = round_index + 1
        moves_out[executors] += moved[executed]
        last_moves[executors] = moved[executed]
        if np.any(retire):
            retired = oi[retire]
            final_counts[retired] = ca[retire]
            reason_out[oi[stopped]] = _REASON_STOP
            if stop_quiescent:
                reason_out[oi[quiet]] = _REASON_QUIESCENT
            keep = np.nonzero(executed)[0]
            counts[:keep.size] = ca[keep]
            orig[:keep.size] = oi[keep]
            A = keep.size
    return A, entered


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------

def run_native_ensemble(
    game: CongestionGame,
    protocol: Protocol,
    initial_states=None,
    *,
    replicas: Optional[int] = None,
    max_rounds: int = 10_000,
    stop_condition=None,
    stop_when_quiescent: bool = True,
    collector=None,
    observer=None,
    strict: bool = False,
    rng: RngLike = None,
    dtype="float64",
    use_numba: Optional[bool] = None,
    trace=None,
):
    """Run the fused native engine; returns an
    :class:`~repro.core.ensemble.EnsembleResult` interchangeable with the
    batched engine's (original replica indexing everywhere, including
    traces and ``replica(i)`` round-trips, despite in-place compaction).

    Parameters mirror :meth:`EnsembleDynamics.run`; additionally ``dtype``
    selects the accumulation precision of the latency/probability buffers
    (``"float32"`` halves memory traffic at ~1e-5 relative accuracy) and
    ``use_numba`` forces the compiled (True) or vectorised-numpy (False)
    chunk implementation instead of auto-detection.

    ``trace`` (optional :class:`repro.telemetry.RoundTracer`) reports
    **coarsely, at kernel-chunk boundaries only** — per-round events would
    force ``sync = 1`` and deoptimize the fused hot loop, so the tracer
    samples the counters the kernel already maintains (``moves_out``,
    ``rounds_out``) outside the jitted region and never changes the
    synchronisation granularity.  Traced native runs therefore consume the
    identical random stream and produce identical results.
    """
    from .ensemble import EnsembleResult  # local import: ensemble ↔ native
    from ..games.state import BatchGameState

    kg = lower_game(game, dtype)
    kp = lower_protocol(protocol, game)
    if use_numba is None:
        use_numba = NUMBA_AVAILABLE
    if use_numba and not NUMBA_AVAILABLE:
        raise NativeBackendError(
            "use_numba=True but numba is not installed; install numba or "
            "pass use_numba=None/False for the numpy fallback"
        )
    if max_rounds <= 0:
        raise ValueError("max_rounds must be positive")
    gen = ensure_rng(rng)

    if initial_states is None:
        if replicas is None or replicas <= 0:
            raise ValueError("need replicas > 0 when no initial states are given")
        counts = game.uniform_random_batch_state(replicas, gen).to_array()
    else:
        counts = game.validate_batch_state(initial_states).copy()
        if replicas is not None and replicas != counts.shape[0]:
            raise ValueError(
                f"initial_states has {counts.shape[0]} replicas, "
                f"but replicas={replicas} was requested"
            )
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    num_replicas, S = counts.shape

    fused = (lower_stop_condition(stop_condition, game)
             if stop_condition is not None else (_STOP_NONE, 0.0, 0.0, 0.0))
    generic_stop = stop_condition if fused is None else None
    if fused is None:
        fused = (_STOP_NONE, 0.0, 0.0, 0.0)
    stop_kind, stop_a, stop_b, stop_c = fused

    # Synchronisation granularity: generic stops and observers need the
    # Python layer every round; a collector needs it at its cadence.
    if generic_stop is not None or observer is not None:
        sync = 1
    elif collector is not None:
        sync = collector.every
    else:
        sync = _DEFAULT_CHUNK

    orig = np.arange(num_replicas, dtype=np.int64)
    rounds_out = np.zeros(num_replicas, dtype=np.int64)
    moves_out = np.zeros(num_replicas, dtype=np.int64)
    reason_out = np.zeros(num_replicas, dtype=np.int64)  # MAX_ROUNDS
    last_moves = np.zeros(num_replicas, dtype=np.int64)
    final_counts = counts.copy()  # retired rows frozen here at retirement

    if use_numba:
        # The loop kernel draws from numba's internal RNG; seed it from the
        # driver's generator so the whole run derives from one seed.
        _seed_loops_jit(int(gen.integers(0, 2**32)))
        scratch = (
            np.zeros(kg.num_resources, dtype=np.int64),   # loads
            np.empty(kg.num_resources, dtype=kg.dtype),   # lat_now
            np.empty(kg.num_resources, dtype=kg.dtype),   # lat_plus
            np.empty(S, dtype=kg.dtype),                  # strat_lat
            np.empty(S, dtype=kg.dtype),                  # joined
            np.empty(S, dtype=np.float64),                # ov
            np.empty(S, dtype=np.float64),                # prob
            np.zeros(S, dtype=np.int64),                  # delta
        )

    def run_chunk(active, start, span):
        if use_numba:
            return _chunk_loops_jit(
                counts, orig, active, start, span,
                float(kg.num_players), stop_when_quiescent,
                kg.strat_indptr, kg.strat_indices,
                kg.res_indptr, kg.res_indices,
                kg.lat_kind, kg.poly_coeffs, kg.lat_table, kg.table_row,
                kp.weights, kp.factors, kp.thresholds,
                kp.sampling_kinds, kp.sampling_virtual, tie_scale(kg.dtype),
                stop_kind, stop_a, stop_b, stop_c,
                rounds_out, moves_out, reason_out, final_counts, last_moves,
                *scratch,
            )
        return _chunk_numpy(
            counts, orig, active, start, span, kg, kp,
            stop_kind, stop_a, stop_b, stop_c, stop_when_quiescent, gen,
            rounds_out, moves_out, reason_out, final_counts, last_moves,
        )

    def snapshot() -> np.ndarray:
        final_counts[orig[:active]] = counts[:active]
        return final_counts

    active = num_replicas
    cursor = 0
    last_recorded = 0
    if collector is not None:
        collector.record(0, snapshot())
    if trace is not None:
        trace.run_started(game, engine="native", replicas=num_replicas,
                          max_rounds=max_rounds)

    while active > 0 and cursor < max_rounds:
        span = min(sync, max_rounds - cursor)
        if generic_stop is not None:
            mask = np.asarray(
                generic_stop(game, counts[:active], cursor), dtype=bool)
            if mask.any():
                retired = orig[:active][mask]
                final_counts[retired] = counts[:active][mask]
                reason_out[retired] = _REASON_STOP
                keep = np.nonzero(~mask)[0]
                counts[:keep.size] = counts[:active][keep]
                orig[:keep.size] = orig[:active][keep]
                active = keep.size
                if active == 0:
                    break
        moves_before = int(moves_out.sum()) if trace is not None else 0
        active, entered = run_chunk(active, cursor, span)
        if entered == 0:
            break
        cursor += entered
        if trace is not None:
            trace.chunk_completed(game, snapshot(), orig[:active], cursor,
                                  int(moves_out.sum()) - moves_before)
        if observer is not None:
            movers = np.nonzero(rounds_out == cursor)[0]
            if movers.size:
                observer(game, snapshot(), movers, cursor)
        if collector is not None and collector.should_record(cursor):
            migrations = np.where(rounds_out == cursor, last_moves, 0)
            collector.record(cursor, snapshot(), migrations=migrations)
            last_recorded = cursor

    snapshot()
    if active > 0 and stop_condition is not None:
        # Budget exhausted with live replicas: one final stop look
        # (mirrors the loop and batch engines).
        mask = np.asarray(
            stop_condition(game, counts[:active], max_rounds), dtype=bool)
        reason_out[orig[:active][mask]] = _REASON_STOP
        if (~mask).any() and strict:
            unstopped = int((~mask).sum())
            raise_strict(unstopped, num_replicas, max_rounds)
    elif active > 0 and strict:
        raise_strict(active, num_replicas, max_rounds)

    max_executed = int(rounds_out.max()) if num_replicas else 0
    if collector is not None and last_recorded != max_executed:
        collector.record(max_executed, final_counts)
    if trace is not None:
        trace.run_finished(
            game, final_counts, None, rounds=max_executed,
            total_migrations=int(moves_out.sum()),
            converged=bool((reason_out != _REASON_MAX_ROUNDS).all()),
        )

    return EnsembleResult(
        final_states=BatchGameState(final_counts),
        rounds=rounds_out,
        stop_reasons=[_REASONS[int(code)] for code in reason_out],
        total_migrations=moves_out,
        trace_rounds=collector.rounds if collector is not None else [],
        traces=collector.traces() if collector is not None else {},
    )


def raise_strict(unstopped: int, total: int, max_rounds: int):
    from ..errors import ConvergenceError

    raise ConvergenceError(
        f"{unstopped} of {total} replicas did not stop "
        f"within {max_rounds} rounds"
    )
