"""Real algorithmic kernels for the toy ISA.

These give the simulator genuine programs -- real dataflow, real address
streams, real branch behaviour -- alongside the statistical SPEC profiles.
They are used by the examples, by end-to-end correctness tests (committed
state must match the golden functional execution for *every* machine
configuration), and as microbenchmarks whose structure isolates one
mechanism each:

==================  =====================================================
``linked_list``     pointer chasing over a shuffled list (mcf-like misses)
``hash_table``      open-addressing inserts + probes (gap/perl-like)
``insertion_sort``  store->load forwarding-heavy inner loop (SSQ stress)
``memcpy_compare``  streaming copy + verify (bzip2/gzip-like)
``matmul``          blocked dense compute (high ILP, few collisions)
``spill_fill``      call-frame push/pop traffic (RLE bypass + forwarding)
==================  =====================================================
"""

from __future__ import annotations

import random
from typing import Callable

from repro.isa.coltrace import ColumnTrace
from repro.isa.golden import trace_program
from repro.isa.program import Program, ProgramBuilder

_HEAP = 0x3000_0000
_TABLE = 0x3100_0000
_ARRAY = 0x3200_0000
_SRC = 0x4000_0000
_DST = 0x4100_0000
_MAT = 0x3300_0000
_STACK = 0x1000_0000


def linked_list(n_nodes: int = 256, seed: int = 7) -> Program:
    """Sum a singly-linked list laid out in shuffled order.

    Node layout: 8 bytes -- value word at +0, next-pointer word at +4.
    """
    rng = random.Random(seed)
    order = list(range(n_nodes))
    rng.shuffle(order)
    b = ProgramBuilder("linked_list", num_regs=8)
    addr_of = lambda i: _HEAP + order[i] * 16
    for i in range(n_nodes):
        b.poke(addr_of(i), rng.randrange(1, 1 << 20), size=4)
        nxt = addr_of(i + 1) if i + 1 < n_nodes else 0
        b.poke(addr_of(i) + 4, nxt, size=4)
    b.addi(1, 0, addr_of(0))  # r1 = head
    b.addi(3, 0, 0)  # r3 = sum
    loop = b.label("loop")
    b.load(2, base=1, offset=0, size=4)  # value
    b.add(3, 3, 2)
    b.load(1, base=1, offset=4, size=4)  # next
    b.bne(1, 0, loop)
    b.store(3, base=0, offset=_HEAP - 8, size=4)  # publish the sum
    b.halt()
    return b.build()


def hash_table(n_keys: int = 128, seed: int = 11) -> Program:
    """Open-addressing hash table: insert ``n_keys`` keys, then probe them."""
    table_words = 1
    while table_words < n_keys * 4:
        table_words *= 2
    mask = table_words - 1
    b = ProgramBuilder("hash_table", num_regs=16)
    b.addi(1, 0, 1)  # r1 = i (keys are i, starting at 1)
    b.addi(2, 0, n_keys + 1)  # r2 = limit
    b.addi(3, 0, 2654435761 & 0x7FFF_FFFF)  # r3 = hash multiplier
    b.addi(4, 0, mask)  # r4 = slot mask
    b.addi(5, 0, _TABLE)  # r5 = table base

    insert_loop = b.label("insert_loop")
    b.mul(6, 1, 3)
    b.shr(6, 6, 8)
    b.and_(6, 6, 4)  # r6 = slot index
    b.mul(6, 6, 3)  # re-randomise high bits ...
    b.and_(6, 6, 4)  # ... and mask again
    b.addi(7, 0, 8)
    b.mul(6, 6, 7)  # r6 = slot byte offset
    b.add(7, 5, 6)  # r7 = probe address
    probe = b.label("probe")
    b.load(8, base=7, offset=0, size=8)
    occupied = b.forward_label("occupied")
    b.bne(8, 0, occupied)
    b.store(1, base=7, offset=0, size=8)  # empty: insert key
    done_insert = b.forward_label("done_insert")
    b.jump(done_insert)
    b.place(occupied)
    b.addi(7, 7, 8)  # linear probe
    b.jump(probe)
    b.place(done_insert)
    b.addi(1, 1, 1)
    b.blt(1, 2, insert_loop)

    # Probe phase: re-hash each key and count hits.
    b.addi(1, 0, 1)
    b.addi(9, 0, 0)  # r9 = hits
    lookup_loop = b.label("lookup_loop")
    b.mul(6, 1, 3)
    b.shr(6, 6, 8)
    b.and_(6, 6, 4)
    b.mul(6, 6, 3)
    b.and_(6, 6, 4)
    b.addi(7, 0, 8)
    b.mul(6, 6, 7)
    b.add(7, 5, 6)
    probe2 = b.label("probe2")
    b.load(8, base=7, offset=0, size=8)
    found = b.forward_label("found")
    b.beq(8, 1, found)
    miss = b.forward_label("miss")
    b.beq(8, 0, miss)  # empty slot: not present (cannot happen here)
    b.addi(7, 7, 8)
    b.jump(probe2)
    b.place(found)
    b.addi(9, 9, 1)
    b.place(miss)
    b.addi(1, 1, 1)
    b.blt(1, 2, lookup_loop)
    b.store(9, base=0, offset=_TABLE - 8, size=8)
    b.halt()
    return b.build()


def insertion_sort(n: int = 48, seed: int = 13) -> Program:
    """Insertion sort of a descending array: worst-case store->load traffic."""
    b = ProgramBuilder("insertion_sort", num_regs=16)
    rng = random.Random(seed)
    values = sorted((rng.randrange(1, 1 << 30) for _ in range(n)), reverse=True)
    for i, v in enumerate(values):
        b.poke(_ARRAY + i * 8, v, size=8)
    b.addi(1, 0, 1)  # r1 = i
    b.addi(2, 0, n)  # r2 = n
    b.addi(3, 0, _ARRAY)  # r3 = base
    b.addi(10, 0, 8)
    outer = b.label("outer")
    b.mul(4, 1, 10)
    b.add(4, 3, 4)  # r4 = &a[i]
    b.load(5, base=4, offset=0, size=8)  # r5 = key
    b.addi(6, 4, -8)  # r6 = &a[j], j = i-1
    inner = b.label("inner")
    inner_done = b.forward_label("inner_done")
    b.blt(6, 3, inner_done)  # j < 0
    b.load(7, base=6, offset=0, size=8)  # r7 = a[j]
    b.bge(5, 7, inner_done)  # a[j] <= key
    b.store(7, base=6, offset=8, size=8)  # a[j+1] = a[j]
    b.addi(6, 6, -8)
    b.jump(inner)
    b.place(inner_done)
    b.store(5, base=6, offset=8, size=8)  # a[j+1] = key
    b.addi(1, 1, 1)
    b.blt(1, 2, outer)
    b.halt()
    return b.build()


def memcpy_compare(n_words: int = 512, seed: int = 17) -> Program:
    """Copy a buffer word-by-word, then stream back over both and compare."""
    b = ProgramBuilder("memcpy_compare", num_regs=16)
    rng = random.Random(seed)
    for i in range(n_words):
        b.poke(_SRC + i * 4, rng.getrandbits(31), size=4)
    b.addi(1, 0, _SRC)
    b.addi(2, 0, _DST)
    b.addi(3, 0, _SRC + n_words * 4)  # limit
    copy = b.label("copy")
    b.load(4, base=1, offset=0, size=4)
    b.store(4, base=2, offset=0, size=4)
    b.addi(1, 1, 4)
    b.addi(2, 2, 4)
    b.blt(1, 3, copy)
    # Verify.
    b.addi(1, 0, _SRC)
    b.addi(2, 0, _DST)
    b.addi(5, 0, 0)  # mismatch count
    check = b.label("check")
    b.load(4, base=1, offset=0, size=4)
    b.load(6, base=2, offset=0, size=4)
    same = b.forward_label("same")
    b.beq(4, 6, same)
    b.addi(5, 5, 1)
    b.place(same)
    b.addi(1, 1, 4)
    b.addi(2, 2, 4)
    b.blt(1, 3, check)
    b.store(5, base=0, offset=_DST - 8, size=4)
    b.halt()
    return b.build()


def matmul(n: int = 10, seed: int = 19) -> Program:
    """Dense n x n integer matrix multiply (C = A * B)."""
    b = ProgramBuilder("matmul", num_regs=24)
    rng = random.Random(seed)
    a_base, b_base, c_base = _MAT, _MAT + n * n * 8, _MAT + 2 * n * n * 8
    for i in range(n * n):
        b.poke(a_base + i * 8, rng.randrange(64), size=8)
        b.poke(b_base + i * 8, rng.randrange(64), size=8)
    b.addi(1, 0, 0)  # i
    b.addi(20, 0, n)
    b.addi(21, 0, 8)
    li = b.label("loop_i")
    b.addi(2, 0, 0)  # j
    lj = b.label("loop_j")
    b.addi(3, 0, 0)  # k
    b.addi(4, 0, 0)  # acc
    lk = b.label("loop_k")
    b.mul(5, 1, 20)
    b.add(5, 5, 3)
    b.mul(5, 5, 21)
    b.addi(5, 5, a_base)
    b.load(6, base=5, offset=0, size=8)  # A[i][k]
    b.mul(7, 3, 20)
    b.add(7, 7, 2)
    b.mul(7, 7, 21)
    b.addi(7, 7, b_base)
    b.load(8, base=7, offset=0, size=8)  # B[k][j]
    b.mul(9, 6, 8)
    b.add(4, 4, 9)
    b.addi(3, 3, 1)
    b.blt(3, 20, lk)
    b.mul(5, 1, 20)
    b.add(5, 5, 2)
    b.mul(5, 5, 21)
    b.addi(5, 5, c_base)
    b.store(4, base=5, offset=0, size=8)  # C[i][j]
    b.addi(2, 2, 1)
    b.blt(2, 20, lj)
    b.addi(1, 1, 1)
    b.blt(1, 20, li)
    b.halt()
    return b.build()


def spill_fill(n_frames: int = 400, seed: int = 23) -> Program:
    """Call-frame style push/compute/pop traffic.

    Each iteration spills two live values to the stack, computes over
    scratch registers, then fills the spilled values back -- the classic
    save/restore pattern behind most store-load forwarding (and behind
    RLE's speculative memory bypassing).
    """
    b = ProgramBuilder("spill_fill", num_regs=16)
    b.addi(1, 0, _STACK + 0x8000)  # r1 = stack pointer
    b.addi(2, 0, 1)  # r2, r3 = live values
    b.addi(3, 0, 2)
    b.addi(4, 0, 0)  # r4 = iteration counter
    b.addi(5, 0, n_frames)
    loop = b.label("loop")
    b.addi(1, 1, -16)  # open frame
    b.store(2, base=1, offset=0, size=8)  # spill r2
    b.store(3, base=1, offset=8, size=8)  # spill r3
    # "Callee" computation clobbers r2/r3.
    b.add(6, 2, 3)
    b.mul(7, 6, 6)
    b.xor(2, 7, 6)
    b.addi(3, 7, 3)
    b.add(8, 2, 3)
    # Restore the caller's values.
    b.load(2, base=1, offset=0, size=8)  # fill r2
    b.load(3, base=1, offset=8, size=8)  # fill r3
    b.addi(1, 1, 16)  # close frame
    b.add(2, 2, 8)  # fold callee result into live state
    b.addi(4, 4, 1)
    b.blt(4, 5, loop)
    b.store(2, base=0, offset=_STACK - 8, size=8)
    b.halt()
    return b.build()


KERNELS: dict[str, Callable[[], Program]] = {
    "linked_list": linked_list,
    "hash_table": hash_table,
    "insertion_sort": insertion_sort,
    "memcpy_compare": memcpy_compare,
    "matmul": matmul,
    "spill_fill": spill_fill,
}


def kernel_trace(name: str, **kwargs: int) -> ColumnTrace:
    """Build and functionally execute a kernel, returning its trace."""
    if name not in KERNELS:
        raise KeyError(f"unknown kernel {name!r}; options: {sorted(KERNELS)}")
    return trace_program(KERNELS[name](**kwargs))
