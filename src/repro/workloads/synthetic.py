"""Epoch-v2 numpy block generator: whole-block column-native sampling.

This is the live synthetic-trace generator.  It samples instructions in
fixed blocks of :data:`BLOCK_SLOTS` slots with batched numpy RNG draws --
kind selection, static-PC skew, address/alias/size selection, dependence
distances and branch outcomes are all drawn for the whole block -- and
scatters the results straight into the codec's flat columns.  Only the
few inherently sequential decisions (exact silent-store values against
the functional memory image, collision claiming, wrong-path payloads)
run as small per-block Python loops over a handful of rows.

This module draws a **different RNG stream** than the retired epoch-v1
generator: moving from per-instruction ``random.Random`` draws to
per-block ``numpy`` PCG64 streams was the one-time fingerprint break
recorded in ROADMAP.md.  v2 traces are pinned by their golden
fingerprints in the golden table (``tests/goldens.json``).

Determinism and the prefix property are preserved by construction:

- every block ``b`` seeds an independent ``PCG64`` stream from
  ``SeedSequence(entropy=f(seed, name), spawn_key=(b,))``, so block
  content never depends on the requested instruction budget;
- all cross-block state (producer table, forwarding/non-redundant load
  records, stream cursor, functional memory, pending collisions) evolves
  only forward, so a shorter trace is an exact prefix of a longer one
  with the same seed;
- the budget is met by truncating whole generated blocks.

The synthetic address space and static-PC partitioning are unchanged from
v1 (the *statistical* contract of :class:`WorkloadProfile` is the same;
only the draw mechanics changed):

==============  ==========================================================
``0x1000_0000``  stack: spill/fill slots addressed off a per-block frame
                 pointer producer (stores in the low half, loads high)
``0x2000_0000``  globals: a small set of hot words (high locality, silent
                 stores, redundancy)
``0x3000_0000``  heap: a configurable working set reached through pointer
                 producers (cache misses, ambiguous stores)
``0x4000_0000``  stream: sequential cursor (compression-style workloads)
``0x5000_0000``  forward: dedicated slots for the designated forwarding
                 (spill/fill-style) store/load pairs
==============  ==========================================================
"""

from __future__ import annotations

import zlib
from array import array

import numpy as np

from repro.isa.coltrace import ColumnTrace
from repro.isa.inst import NO_PRODUCER
from repro.isa.ops import OpClass
from repro.memsys.memimg import MemoryImage
from repro.workloads.profile import WorkloadProfile

#: Trace-identity epoch.  Bumped exactly once per deliberate fingerprint
#: break; recorded in codec headers, benchmark payloads and the golden
#: table (regenerated by ``svw-repro goldens``), so readers can refuse
#: cross-epoch comparisons with a clear error.
TRACE_EPOCH = 2

#: Instruction slots sampled per block (each slot expands to one or two
#: rows; a short pointer preamble precedes every block).
BLOCK_SLOTS = 4096

STACK_BASE = 0x1000_0000
GLOBAL_BASE = 0x2000_0000
HEAP_BASE = 0x3000_0000
STREAM_BASE = 0x4000_0000
#: Dedicated slots for the designated forwarding (spill/fill-style) pairs;
#: plain stores never write here, so address-indexed training (SPCT) maps
#: forwarding loads back to forwarding-site stores and nothing else.
FORWARD_BASE = 0x5000_0000

# Static PC ranges by role (disjoint; sized generously).
_PC_ALU = 0x10_0000
_PC_LOAD = 0x20_0000
_PC_STORE = 0x30_0000
_PC_BRANCH = 0x40_0000
_PC_FWD_LOAD = 0x50_0000
_PC_FWD_STORE = 0x60_0000
_PC_AMB_STORE = 0x70_0000
_PC_COLLIDE_LOAD = 0x80_0000
_PC_REDUNDANT_LOAD = 0x90_0000
_PC_GLOBAL_LOAD = 0xA0_0000
_PC_GLOBAL_STORE = 0xB0_0000
_PC_FALSE_ELIM_STORE = 0xC0_0000

#: Offset-namespace bias for forwarding-region accesses (must clear the
#: largest plain stack offset so signatures stay one-to-one with addresses).
_FWD_OFFSET_BIAS = 1 << 24

_OP_IALU = int(OpClass.IALU)
_OP_IMUL = int(OpClass.IMUL)
_OP_FALU = int(OpClass.FALU)
_OP_LOAD = int(OpClass.LOAD)
_OP_STORE = int(OpClass.STORE)
_OP_BRANCH = int(OpClass.BRANCH)

_I64 = np.int64

#: Typecode -> numpy dtype for the final array.array conversion.
_TC_DTYPE = {
    "B": np.uint8,
    "I": np.uint32,
    "Q": np.uint64,
    "i": np.int32,
    "q": np.int64,
}
_TC_BOUNDS = {
    "B": (0, 2**8 - 1),
    "I": (0, 2**32 - 1),
    "Q": (0, 2**64 - 1),
    "i": (-(2**31), 2**31 - 1),
    "q": (-(2**63), 2**63 - 1),
}


def _np_column(col: np.ndarray, narrow: str, wide: str) -> array:
    """Convert an int64 numpy column to the narrowest fitting typecode."""
    tc = narrow
    if narrow != wide and len(col):
        lo, hi = _TC_BOUNDS[narrow]
        mn, mx = int(col.min()), int(col.max())
        if mn < lo or mx > hi:
            tc = wide
    out = array(tc)
    out.frombytes(np.ascontiguousarray(col.astype(_TC_DTYPE[tc])).tobytes())
    return out


class _GrowBuf:
    """Append-only int64 buffer with amortized-doubling growth."""

    __slots__ = ("data", "n")

    def __init__(self, cap: int = 4096) -> None:
        self.data = np.empty(cap, dtype=_I64)
        self.n = 0

    def append(self, arr: np.ndarray) -> None:
        need = self.n + len(arr)
        if need > len(self.data):
            cap = max(need, 2 * len(self.data))
            grown = np.empty(cap, dtype=_I64)
            grown[: self.n] = self.data[: self.n]
            self.data = grown
        self.data[self.n : need] = arr
        self.n = need

    def view(self) -> np.ndarray:
        return self.data[: self.n]


def _exp_dist(u: np.ndarray, mean: float) -> np.ndarray:
    """Geometric-ish dependence distances: ``floor(Exp(mean)) + 1``."""
    return (-np.log1p(-u) * mean).astype(_I64) + 1


def _skew_idx(u: np.ndarray, count: int) -> np.ndarray:
    """Hot-skewed static index selection (quadratic bias to low indices)."""
    return np.minimum((count * u * u).astype(_I64), count - 1)


class _BlockGenerator:
    """Stateful whole-block sampler.  One instance generates one trace."""

    def __init__(self, profile: WorkloadProfile, n_insts: int, seed: int) -> None:
        profile.validate()
        self.profile = profile
        self.n_insts = n_insts
        # crc32, not hash(): string hashes are randomized per process and
        # the trace stream must be identical across processes.  The "svw2:"
        # prefix keeps the v2 entropy pool disjoint from v1's "svw:" pool.
        self.entropy = (
            (seed << 16) ^ zlib.crc32(("svw2:" + profile.name).encode())
        ) & 0xFFFF_FFFF_FFFF
        # -- profile-derived constants (mirrors the v1 parameterization) --
        self.mean_dep = max(1.0, profile.dep_distance)
        self.mean_dep2 = max(1.0, profile.dep_distance * 2)
        self.mean_fwd = max(1.0, profile.forward_distance)
        self.mean_red = max(1.0, profile.redundancy_distance)
        self.half_slots = max(1, profile.stack_slots // 2)
        half_heap = profile.heap_bytes // 2
        # Candidate counts use ceiling division: heap_bytes is only
        # required to be a multiple of 8, so the half-heap widths need not
        # divide 8 evenly and flooring would drop the last candidate.
        self.half_heap = half_heap
        self.heap_load_n = (profile.heap_bytes - half_heap + 7) // 8
        self.heap_store_n = (half_heap + 7) // 8
        gf_load = profile.global_frac
        gf_store = profile.global_frac * profile.store_global_scale
        self.t_stack = profile.stack_frac
        self.t_global_load = profile.stack_frac + gf_load
        self.t_global_store = profile.stack_frac + gf_store
        self.t_stream_load = self.t_global_load + profile.stream_frac
        self.t_stream_store = self.t_global_store + profile.stream_frac
        self.fwd_share = min(
            0.9,
            0.05
            + profile.forward_frac
            * profile.load_frac
            / max(0.01, profile.store_frac),
        )
        self.addr_pcs = max(16, profile.static_alu_pcs // 4)
        # Kind-selection thresholds (cumulative mix bands).
        self.kind_edges = np.array(
            [
                profile.load_frac,
                profile.load_frac + profile.store_frac,
                profile.load_frac + profile.store_frac + profile.branch_frac,
                profile.load_frac
                + profile.store_frac
                + profile.branch_frac
                + profile.imul_frac,
                profile.mix_total(),
            ],
            dtype=np.float64,
        )
        self.kind_ops = np.array(
            [_OP_LOAD, _OP_STORE, _OP_BRANCH, _OP_IMUL, _OP_FALU, _OP_IALU],
            dtype=_I64,
        )
        # Branch site biases: hard-to-predict branches sit at the *cold*
        # end of the (quadratically hot-skewed) site distribution.
        nb = profile.static_branches
        n_hard = max(1, int(nb * profile.hard_branch_frac))
        bias = np.full(nb, profile.easy_branch_bias, dtype=np.float64)
        bias[nb - n_hard :] = profile.hard_branch_bias
        self.branch_bias = bias
        # -- cross-block carried state --
        self.block = 0
        self.rows_total = 0
        self.prod = _GrowBuf()  # rows of value producers, in row order
        self.fwd_rows = _GrowBuf()  # forwarding-site store records
        self.fwd_addr = _GrowBuf()
        self.fwd_size = _GrowBuf()
        self.fwd_base = _GrowBuf()
        self.fwd_offset = _GrowBuf()
        self.fwd_site = _GrowBuf()
        self.nr_rows = _GrowBuf()  # non-redundant load records (reuse pool)
        self.nr_addr = _GrowBuf()
        self.nr_size = _GrowBuf()
        self.nr_base = _GrowBuf()
        self.nr_offset = _GrowBuf()
        self.last_load_row = -1
        self.stream_cursor = 0
        self.value_counter = 0
        self.memory = MemoryImage()
        self.pending_collisions: list[tuple[int, int, int, int, int]] = []
        self.wrong_path: dict[int, tuple[int, ...]] = {}
        # Accumulated per-block column chunks (int64), concatenated once.
        self.chunks: dict[str, list[np.ndarray]] = {
            name: []
            for name in (
                "pc",
                "op",
                "dst_reg",
                "addr",
                "size",
                "store_value",
                "store_data_seq",
                "taken",
                "base_seq",
                "offset",
                "src_count",
                "src_flat",
            )
        }

    # -- helpers --------------------------------------------------------------

    def _rng(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.entropy, spawn_key=(self.block,))
        return np.random.Generator(np.random.PCG64(seq))

    def _pick_producer(self, p_count: np.ndarray, dist: np.ndarray) -> np.ndarray:
        """Producer rows at ``dist`` back within a 128-deep window.

        ``p_count[i]`` is the number of value producers at rows strictly
        before row ``i``; the gather indexes the global producer table.
        """
        back = np.minimum(dist, np.minimum(p_count, 128))
        return self.prod.view()[p_count - back]

    # -- one block -------------------------------------------------------------

    def _generate_block(self) -> None:
        prof = self.profile
        B = BLOCK_SLOTS
        b = self.block
        rng = self._rng()
        rows_before = self.rows_total

        # All RNG consumption happens here, as named uniform draws in one
        # fixed order -- the block's content is a pure function of these
        # arrays plus carried state, never of the instruction budget.
        u_kind = rng.random(B)
        u_pc = rng.random(B)
        u_dst = rng.random(B)
        u_size = rng.random(B)
        u_root = rng.random(B)
        u_nsrc = rng.random(B)
        u_d1 = rng.random(B)
        u_d2 = rng.random(B)
        u_sregion = rng.random(B)
        u_samb = rng.random(B)
        u_sfwd = rng.random(B)
        u_ssite = rng.random(B)
        u_soff = rng.random(B)
        u_sjit = rng.random(B)
        u_sdata = rng.random(B)
        u_silent = rng.random(B)
        u_scoll = rng.random(B)
        u_scollw = rng.random(B)
        u_lrole = rng.random(B)
        u_lregion = rng.random(B)
        u_loff = rng.random(B)
        u_ldist = rng.random(B)
        u_lac = rng.random(B)
        u_lacd = rng.random(B)
        u_taken = rng.random(B)
        u_wp = rng.random(B)
        u_wpc = rng.random(B)
        u_wpa1 = rng.random(B)
        u_wpa2 = rng.random(B)
        u_felim = rng.random(B)

        # -- kinds -------------------------------------------------------------
        op_slot = self.kind_ops[np.searchsorted(self.kind_edges, u_kind, side="right")]
        is_load = op_slot == _OP_LOAD
        is_store = op_slot == _OP_STORE
        is_branch = op_slot == _OP_BRANCH
        is_alu = ~(is_load | is_store | is_branch)

        # -- roles (position-independent, so row layout can follow) ------------
        # Store roles first: ambiguity needs only "a load exists earlier".
        load_seen = np.cumsum(is_load) - is_load
        amb_ok = (load_seen > 0) | (self.last_load_row >= 0)
        amb = is_store & amb_ok & (u_samb < prof.ambiguous_store_frac)
        reg_global_s = (
            is_store & (u_sregion >= self.t_stack) & (u_sregion < self.t_global_store)
        )
        fwd_s = is_store & ~amb & ~reg_global_s & (u_sfwd < self.fwd_share)
        plain_s = is_store & ~amb & ~reg_global_s & ~fwd_s
        stack_s = plain_s & (u_sregion < self.t_stack)
        stream_s = (
            plain_s
            & (u_sregion >= self.t_global_store)
            & (u_sregion < self.t_stream_store)
        )
        heap_s = plain_s & ~stack_s & ~stream_s

        # Load roles: forwarding needs a forwarding-site store on record,
        # redundancy a non-redundant load on record.  Loads whose role draw
        # falls in the forwarding band can never be redundant, so both
        # bands outside [f, f+r) count toward the reuse pool a priori.
        f = prof.forward_frac
        r = prof.redundancy_frac
        fwd_seen = self.fwd_rows.n + np.cumsum(fwd_s) - fwd_s
        fwd_l = is_load & (u_lrole < f) & (fwd_seen > 0)
        certain_nr = is_load & ~((u_lrole >= f) & (u_lrole < f + r))
        nr_seen = self.nr_rows.n + np.cumsum(certain_nr) - certain_nr
        red_l = is_load & (u_lrole >= f) & (u_lrole < f + r) & (nr_seen > 0)
        fresh_l = is_load & ~fwd_l & ~red_l
        stack_l = fresh_l & (u_lregion < self.t_stack)
        global_l = (
            fresh_l & (u_lregion >= self.t_stack) & (u_lregion < self.t_global_load)
        )
        stream_l = (
            fresh_l
            & (u_lregion >= self.t_global_load)
            & (u_lregion < self.t_stream_load)
        )
        heap_l = fresh_l & ~stack_l & ~global_l & ~stream_l

        # A redundant load with an intervening same-address store expands
        # its slot to two rows: the false-eliminating store, then the load.
        felim = red_l & (u_felim < prof.false_elim_frac)

        # -- row layout --------------------------------------------------------
        # 5 preamble pointer producers, then one row per slot plus one extra
        # row (before the load) for each false-elimination store.
        extra = felim.astype(_I64)
        local_main = 5 + np.arange(B, dtype=_I64) + np.cumsum(extra)
        n_rows = 5 + B + int(extra.sum())
        main_rows = rows_before + local_main  # global row ids == seqs
        fp_row = rows_before  # frame pointer
        gp_row = rows_before + 1  # global base
        hp_row = rows_before + 2  # heap pointer
        frame_off = (b * prof.stack_slots * 8) % (1 << 20)

        # Value-producer table: preamble rows and every load/ALU row, in
        # row order.  Appended *before* the gathers -- per-row producer
        # counts keep every gather strictly in the past.
        is_prod_slot = is_load | is_alu
        local_prod = np.zeros(n_rows, dtype=bool)
        local_prod[:5] = True
        local_prod[local_main] = is_prod_slot
        p_carry = self.prod.n
        p_row = p_carry + np.cumsum(local_prod) - local_prod
        p_main = p_row[local_main]
        self.prod.append(rows_before + np.flatnonzero(local_prod))

        # -- per-slot columns --------------------------------------------------
        pc = np.empty(B, dtype=_I64)
        dst = np.where(is_prod_slot, 1 + (u_dst * 24).astype(_I64), NO_PRODUCER)
        addr = np.zeros(B, dtype=_I64)
        size = np.where(
            is_load | is_store, np.where(u_size < prof.sub_quad_frac, 4, 8), 0
        )
        base = np.full(B, NO_PRODUCER, dtype=_I64)
        offset = np.zeros(B, dtype=_I64)
        taken = np.zeros(B, dtype=_I64)
        sdseq = np.full(B, NO_PRODUCER, dtype=_I64)

        # ALU rows.
        pc[is_alu] = _PC_ALU + _skew_idx(u_pc[is_alu], prof.static_alu_pcs) * 4

        # Branch rows.
        site_b = _skew_idx(u_pc, prof.static_branches)
        pc[is_branch] = _PC_BRANCH + site_b[is_branch] * 4
        taken[is_branch] = (u_taken < self.branch_bias[site_b])[is_branch]

        # -- store addresses ---------------------------------------------------
        site_s = (u_ssite * prof.forward_pcs).astype(_I64)
        # plain/stack: spill slots in the low half of the frame.
        off_stack = (u_soff * self.half_slots).astype(_I64) * 8
        addr[stack_s] = STACK_BASE + (frame_off + off_stack[stack_s]) % (1 << 20)
        offset[stack_s] = off_stack[stack_s]
        base[stack_s] = fp_row
        pc[stack_s | heap_s | stream_s] = (
            _PC_STORE
            + _skew_idx(u_pc[stack_s | heap_s | stream_s], prof.static_store_pcs) * 4
        )
        # hot globals (quadratic word skew).
        word_s = np.minimum(
            (prof.global_words * u_soff * u_soff).astype(_I64), prof.global_words - 1
        )
        addr[reg_global_s] = GLOBAL_BASE + word_s[reg_global_s] * 8
        offset[reg_global_s] = word_s[reg_global_s] * 8
        base[reg_global_s] = gp_row
        pc[reg_global_s] = _PC_GLOBAL_STORE + (word_s[reg_global_s] % 64) * 4
        # heap (store half).
        off_heap_s = (u_soff * self.heap_store_n).astype(_I64) * 8
        addr[heap_s] = HEAP_BASE + off_heap_s[heap_s]
        offset[heap_s] = off_heap_s[heap_s]
        base[heap_s] = hp_row
        # ambiguous stores: address hangs off the most recent load; the
        # full address doubles as the offset so signatures stay one-to-one.
        ll = np.empty(B, dtype=_I64)
        ll[0] = self.last_load_row
        ll[1:] = np.where(is_load, main_rows, -1)[:-1]
        last_load_excl = np.maximum.accumulate(ll)
        amb_addr = HEAP_BASE + off_heap_s
        addr[amb] = amb_addr[amb]
        offset[amb] = amb_addr[amb]
        base[amb] = last_load_excl[amb]
        pc[amb] = _PC_AMB_STORE + site_s[amb] * 4
        # forwarding-site stores: dedicated slots off the frame pointer.
        fwd_slot = (
            (b & 63) * prof.forward_pcs * 4 + site_s * 4 + (u_sjit * 4).astype(_I64)
        )
        addr[fwd_s] = FORWARD_BASE + fwd_slot[fwd_s] * 8
        offset[fwd_s] = _FWD_OFFSET_BIAS + fwd_slot[fwd_s] * 8
        base[fwd_s] = fp_row
        pc[fwd_s] = _PC_FWD_STORE + site_s[fwd_s] * 4
        # store data producers.
        d_data = _exp_dist(u_sdata, self.mean_dep2)
        sdseq[is_store] = self._pick_producer(p_main[is_store], d_data[is_store])

        # -- fresh load addresses ----------------------------------------------
        off_lstack = (self.half_slots + (u_loff * self.half_slots).astype(_I64)) * 8
        addr[stack_l] = STACK_BASE + (frame_off + off_lstack[stack_l]) % (1 << 20)
        offset[stack_l] = off_lstack[stack_l]
        base[stack_l] = fp_row
        pc[stack_l | heap_l | stream_l] = (
            _PC_LOAD
            + _skew_idx(u_pc[stack_l | heap_l | stream_l], prof.static_load_pcs) * 4
        )
        word_l = np.minimum(
            (prof.global_words * u_loff * u_loff).astype(_I64), prof.global_words - 1
        )
        addr[global_l] = GLOBAL_BASE + word_l[global_l] * 8
        offset[global_l] = word_l[global_l] * 8
        base[global_l] = gp_row
        pc[global_l] = _PC_GLOBAL_LOAD + (word_l[global_l] % 64) * 4
        off_lheap = self.half_heap + (u_loff * self.heap_load_n).astype(_I64) * 8
        addr[heap_l] = HEAP_BASE + off_lheap[heap_l]
        offset[heap_l] = off_lheap[heap_l]
        base[heap_l] = hp_row
        # stream cursor: loads and stores share one sequential cursor.
        stream_m = stream_l | stream_s
        rank = np.cumsum(stream_m) - stream_m
        raw = (
            self.stream_cursor + prof.stream_stride * (rank + 1)
        ) % (1 << 22)
        stream_addr = (STREAM_BASE + raw) & ~(np.maximum(size, 1) - 1)
        addr[stream_m] = stream_addr[stream_m]
        offset[stream_m] = 0
        self.stream_cursor = (
            self.stream_cursor + prof.stream_stride * int(stream_m.sum())
        ) % (1 << 22)
        # freshly-computed addresses: an in-window producer feeds the base
        # register, delaying AGEN; the full address becomes the offset.
        ac = fresh_l & (u_lac < prof.addr_comp_frac)
        d_ac = _exp_dist(u_lacd, self.mean_dep)
        base[ac] = self._pick_producer(p_main[ac], d_ac[ac])
        offset[ac] = addr[ac]

        # -- forwarding loads (copy a recorded forwarding store) ---------------
        fwd_block_rows = main_rows[fwd_s]
        self.fwd_rows.append(fwd_block_rows)
        self.fwd_addr.append(addr[fwd_s])
        self.fwd_size.append(size[fwd_s])
        self.fwd_base.append(base[fwd_s])
        self.fwd_offset.append(offset[fwd_s])
        self.fwd_site.append(site_s[fwd_s])
        if fwd_l.any():
            rows_v = self.fwd_rows.view()
            g = main_rows[fwd_l]
            d = _exp_dist(u_ldist[fwd_l], self.mean_fwd)
            hi = np.searchsorted(rows_v, g, side="left") - 1
            j = np.clip(np.searchsorted(rows_v, g - d, side="right") - 1, 0, hi)
            addr[fwd_l] = self.fwd_addr.view()[j]
            size[fwd_l] = self.fwd_size.view()[j]
            base[fwd_l] = self.fwd_base.view()[j]
            offset[fwd_l] = self.fwd_offset.view()[j]
            pc[fwd_l] = _PC_FWD_LOAD + self.fwd_site.view()[j] * 4

        # -- true collisions (ambiguous store hits the next fresh load) --------
        overrides: list[tuple[int, int, int, int]] = []
        fresh_idx = np.flatnonzero(fresh_l)
        fresh_rows_g = main_rows[fresh_idx]
        claimed = np.zeros(len(fresh_idx), dtype=bool)

        def _claim(after: int, until: int, a: int, s: int, site: int) -> bool:
            j = int(np.searchsorted(fresh_rows_g, after, side="right"))
            while j < len(fresh_idx) and claimed[j]:
                j += 1
            if j < len(fresh_idx) and fresh_rows_g[j] <= until:
                claimed[j] = True
                overrides.append((int(fresh_idx[j]), a, s, site))
                return True
            return False

        for pend in self.pending_collisions:
            _claim(*pend)
        self.pending_collisions = []
        block_end = rows_before + n_rows
        for s_idx in np.flatnonzero(amb & (u_scoll < prof.collision_frac)).tolist():
            row = int(main_rows[s_idx])
            until = row + 2 + int(u_scollw[s_idx] * 11)
            hit = _claim(row, until, int(addr[s_idx]), int(size[s_idx]),
                         int(site_s[s_idx]))
            if not hit and until >= block_end:
                self.pending_collisions.append(
                    (row, until, int(addr[s_idx]), int(size[s_idx]),
                     int(site_s[s_idx]))
                )
        for slot, a, sz, site in overrides:
            addr[slot] = a
            size[slot] = sz
            offset[slot] = 0
            base[slot] = NO_PRODUCER
            pc[slot] = _PC_COLLIDE_LOAD + site * 4

        # -- redundant loads (copy a recorded non-redundant load) --------------
        nonred = fresh_l | fwd_l
        self.nr_rows.append(main_rows[nonred])
        self.nr_addr.append(addr[nonred])
        self.nr_size.append(size[nonred])
        self.nr_base.append(base[nonred])
        self.nr_offset.append(offset[nonred])
        if red_l.any():
            rows_v = self.nr_rows.view()
            g = main_rows[red_l]
            d = _exp_dist(u_ldist[red_l], self.mean_red)
            hi = np.searchsorted(rows_v, g, side="left") - 1
            j = np.clip(np.searchsorted(rows_v, g - d, side="right") - 1, 0, hi)
            addr[red_l] = self.nr_addr.view()[j]
            size[red_l] = self.nr_size.view()[j]
            base[red_l] = self.nr_base.view()[j]
            offset[red_l] = self.nr_offset.view()[j]
            pc[red_l] = _PC_REDUNDANT_LOAD + (offset[red_l] % 64) * 4

        self.last_load_row = int(
            np.max(np.where(is_load, main_rows, self.last_load_row))
        )

        # -- sources -----------------------------------------------------------
        src_n = np.zeros(B, dtype=_I64)
        src_a = np.full(B, NO_PRODUCER, dtype=_I64)
        src_b = np.full(B, NO_PRODUCER, dtype=_I64)
        rooted = u_root < prof.root_frac
        d1 = _exp_dist(u_d1, self.mean_dep)
        d2 = _exp_dist(u_d2, self.mean_dep)
        s1 = self._pick_producer(p_main, d1)
        s2 = self._pick_producer(p_main, d2)
        one_alu = is_alu & ~rooted
        src_n[one_alu] = 1
        src_a[one_alu] = s1[one_alu]
        pair = one_alu & (u_nsrc < 0.5) & (s1 != s2)
        src_n[pair] = 2
        src_a[pair] = np.minimum(s1, s2)[pair]
        src_b[pair] = np.maximum(s1, s2)[pair]
        one_br = is_branch & ~rooted
        src_n[one_br] = 1
        src_a[one_br] = s1[one_br]
        load_src = is_load & (base >= 0)
        src_n[load_src] = 1
        src_a[load_src] = base[load_src]
        st_two = is_store & (base >= 0) & (base != sdseq)
        st_one = is_store & ~st_two
        src_n[st_one] = 1
        src_a[st_one] = sdseq[st_one]
        src_n[st_two] = 2
        src_a[st_two] = np.minimum(base, sdseq)[st_two]
        src_b[st_two] = np.maximum(base, sdseq)[st_two]

        # -- scatter into local row-major columns ------------------------------
        c_pc = np.zeros(n_rows, dtype=_I64)
        c_op = np.full(n_rows, _OP_IALU, dtype=_I64)
        c_dst = np.full(n_rows, NO_PRODUCER, dtype=_I64)
        c_addr = np.zeros(n_rows, dtype=_I64)
        c_size = np.zeros(n_rows, dtype=_I64)
        c_sval = np.zeros(n_rows, dtype=_I64)
        c_sdseq = np.full(n_rows, NO_PRODUCER, dtype=_I64)
        c_taken = np.zeros(n_rows, dtype=_I64)
        c_base = np.full(n_rows, NO_PRODUCER, dtype=_I64)
        c_off = np.zeros(n_rows, dtype=_I64)
        c_srcn = np.zeros(n_rows, dtype=_I64)
        c_srca = np.full(n_rows, NO_PRODUCER, dtype=_I64)
        c_srcb = np.full(n_rows, NO_PRODUCER, dtype=_I64)
        silent = np.zeros(n_rows, dtype=bool)
        # Preamble: frame/global/heap pointers plus two seed producers.
        c_pc[:5] = _PC_ALU
        c_dst[:5] = np.arange(29, 24, -1, dtype=_I64)
        c_op[local_main] = op_slot
        c_pc[local_main] = pc
        c_dst[local_main] = dst
        c_addr[local_main] = addr
        c_size[local_main] = size
        c_sdseq[local_main] = sdseq
        c_taken[local_main] = taken
        c_base[local_main] = base
        c_off[local_main] = offset
        c_srcn[local_main] = src_n
        c_srca[local_main] = src_a
        c_srcb[local_main] = src_b
        silent[local_main] = is_store & (u_silent < prof.silent_store_frac)
        # False-elimination stores: one row before their redundant load,
        # rewriting the load's address with a fresh (never silent) value.
        if felim.any():
            fe_local = local_main[felim] - 1
            c_op[fe_local] = _OP_STORE
            c_addr[fe_local] = addr[felim]
            c_size[fe_local] = size[felim]
            c_off[fe_local] = offset[felim]
            c_pc[fe_local] = _PC_FALSE_ELIM_STORE + (offset[felim] % 64)
            fe_data = self.prod.view()[p_row[fe_local] - 1]
            c_sdseq[fe_local] = fe_data
            c_srcn[fe_local] = 1
            c_srca[fe_local] = fe_data

        # -- store values (exact silent semantics vs the functional image) -----
        mem = self.memory
        counter = self.value_counter
        addr_l = c_addr.tolist()
        size_l = c_size.tolist()
        silent_l = silent.tolist()
        for row in np.flatnonzero(c_op == _OP_STORE).tolist():
            a, s = addr_l[row], size_l[row]
            if silent_l[row]:
                value = mem.read(a, s)
            else:
                counter += 1
                value = counter
            mem.write(a, value, s)
            c_sval[row] = value
        self.value_counter = counter

        # -- wrong-path address payloads ---------------------------------------
        wp = is_branch & (u_wp < 0.4)
        heap_words = prof.heap_bytes // 8
        wpa1 = HEAP_BASE + (u_wpa1 * heap_words).astype(_I64) * 8
        wpa2 = GLOBAL_BASE + (u_wpa2 * prof.global_words).astype(_I64) * 8
        for s_idx in np.flatnonzero(wp).tolist():
            addrs = (int(wpa1[s_idx]),)
            if u_wpc[s_idx] < 0.5:
                addrs += (int(wpa2[s_idx]),)
            self.wrong_path[int(main_rows[s_idx])] = addrs

        # -- flat source list (CSR values; offsets derive from counts) ---------
        starts = np.cumsum(c_srcn) - c_srcn
        flat = np.empty(int(c_srcn.sum()), dtype=_I64)
        m1 = c_srcn >= 1
        m2 = c_srcn == 2
        flat[starts[m1]] = c_srca[m1]
        flat[starts[m2] + 1] = c_srcb[m2]

        chunks = self.chunks
        chunks["pc"].append(c_pc)
        chunks["op"].append(c_op)
        chunks["dst_reg"].append(c_dst)
        chunks["addr"].append(c_addr)
        chunks["size"].append(c_size)
        chunks["store_value"].append(c_sval)
        chunks["store_data_seq"].append(c_sdseq)
        chunks["taken"].append(c_taken)
        chunks["base_seq"].append(c_base)
        chunks["offset"].append(c_off)
        chunks["src_count"].append(c_srcn)
        chunks["src_flat"].append(flat)
        self.rows_total += n_rows
        self.block += 1

    # -- invariants ------------------------------------------------------------

    def _self_check(
        self,
        cols: dict[str, np.ndarray],
        offsets: np.ndarray,
        flat: np.ndarray,
        counts: np.ndarray,
    ) -> None:
        """Vectorized generation-time invariant check (mirrors
        :meth:`ColumnTrace.validate`, at numpy speed)."""
        n = len(cols["op"])
        rows = np.arange(n, dtype=_I64)
        op = cols["op"]
        base = cols["base_seq"]
        addr = cols["addr"]
        size = cols["size"]
        offset = cols["offset"]
        sdseq = cols["store_data_seq"]
        if not bool(np.all((base == NO_PRODUCER) | ((base >= 0) & (base < rows)))):
            raise ValueError("v2 generator: base producer not strictly earlier")
        if not bool(np.all((sdseq == NO_PRODUCER) | ((sdseq >= 0) & (sdseq < rows)))):
            raise ValueError("v2 generator: store data producer not strictly earlier")
        owner = np.repeat(rows, counts)
        if not bool(np.all((flat >= 0) & (flat < owner))):
            raise ValueError("v2 generator: source not strictly earlier")
        mem = (op == _OP_LOAD) | (op == _OP_STORE)
        if not bool(np.all(np.isin(size[mem], (4, 8)))):
            raise ValueError("v2 generator: bad memory access size")
        if not bool(np.all(addr[mem] % np.maximum(size[mem], 1) == 0)):
            raise ValueError("v2 generator: unaligned memory access")
        sig = mem & (base >= 0)
        sb, so, sa = base[sig], offset[sig], addr[sig]
        order = np.lexsort((sa, so, sb))
        sb, so, sa = sb[order], so[order], sa[order]
        same_key = (sb[1:] == sb[:-1]) & (so[1:] == so[:-1])
        if bool(np.any(same_key & (sa[1:] != sa[:-1]))):
            raise ValueError("v2 generator: signature maps to two addresses")

    # -- finalize --------------------------------------------------------------

    def run(self) -> ColumnTrace:
        n = self.n_insts
        while self.rows_total < n:
            self._generate_block()
        chunks = self.chunks
        cols = {
            name: np.concatenate(chunks[name])[:n]
            for name in (
                "pc",
                "op",
                "dst_reg",
                "addr",
                "size",
                "store_value",
                "store_data_seq",
                "taken",
                "base_seq",
                "offset",
            )
        }
        counts = np.concatenate(chunks["src_count"])[:n]
        offsets = np.zeros(n + 1, dtype=_I64)
        np.cumsum(counts, out=offsets[1:])
        flat = np.concatenate(chunks["src_flat"])[: int(offsets[-1])]
        self._self_check(cols, offsets, flat, counts)
        arrays = {
            "pc": _np_column(cols["pc"], "I", "Q"),
            "op": _np_column(cols["op"], "B", "B"),
            "dst_reg": _np_column(cols["dst_reg"], "i", "q"),
            "addr": _np_column(cols["addr"], "I", "Q"),
            "size": _np_column(cols["size"], "B", "B"),
            "store_value": _np_column(cols["store_value"], "Q", "Q"),
            "store_data_seq": _np_column(cols["store_data_seq"], "i", "q"),
            "taken": _np_column(cols["taken"], "B", "B"),
            "base_seq": _np_column(cols["base_seq"], "i", "q"),
            "offset": _np_column(cols["offset"], "i", "q"),
            "src_offsets": _np_column(offsets, "I", "Q"),
            "src_flat": _np_column(flat, "i", "q"),
        }
        wrong_path = {
            seq: addrs for seq, addrs in self.wrong_path.items() if seq < n
        }
        return ColumnTrace(
            self.profile.name,
            arrays,
            initial_memory={},
            wrong_path_addrs=wrong_path,
        )


def generate_trace(
    profile: WorkloadProfile, n_insts: int, seed: int | None = None
) -> ColumnTrace:
    """Generate a deterministic **epoch-v2** trace for ``profile``.

    Block-sampled on numpy (see the module docstring); deterministic per
    ``(profile, seed)`` across platforms and prefix-stable in ``n_insts``.

    Args:
        profile: The workload description.
        n_insts: Number of dynamic instructions to emit.
        seed: Generator seed; defaults to ``profile.seed``.
    """
    if n_insts <= 0:
        raise ValueError("n_insts must be positive")
    gen = _BlockGenerator(profile, n_insts, profile.seed if seed is None else seed)
    return gen.run()
