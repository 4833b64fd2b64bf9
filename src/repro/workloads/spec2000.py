"""SPEC2000 integer benchmark profiles.

Each profile is a statistical stand-in for one of the 16 benchmark runs the
paper evaluates (section 4: SPEC2000int, train inputs, Digital OSF C -O3).
Parameters are calibrated *qualitatively* against per-benchmark behaviour the
paper reports:

- twolf has the highest NLQ-LS natural re-execution rate (~20%): pointer
  writes make many store addresses resolve late.
- perl.diffmail retains the highest re-execution rate after SVW (2.6% with
  the forwarding update): its loads genuinely collide with nearby stores.
- vortex has high IPC, the highest RLE elimination rate (42%), and needs
  more ordered-forwarding capacity than a 16-entry FSQ provides: many
  concurrent static forwarding pairs at long distances.
- eon.cook has the highest SSQ+SVW re-execution rate (33%): loads frequently
  read recently-written stack locations.
- mcf is memory bound (huge working set, pointer chasing, low ILP).
- bzip2/gzip stream; crafty is global-table heavy with high redundancy
  (peak RLE speedup); gcc has a large static footprint and branch pressure.

Absolute SPEC behaviour is not claimed: each profile models the
memory-reference structure the studied mechanisms are sensitive to, and the
figures compare machines on the same traces, so the claims are relative.
"""

from __future__ import annotations

from dataclasses import replace

from repro.workloads.profile import WorkloadProfile

_BASE = WorkloadProfile(name="base")


def _profile(name: str, notes: str, **overrides: object) -> WorkloadProfile:
    return replace(_BASE, name=name, notes=notes, **overrides)  # type: ignore[arg-type]


SPEC2000_PROFILES: dict[str, WorkloadProfile] = {
    profile.name: profile
    for profile in [
        _profile(
            "bzip2",
            "Block-sorting compressor: streaming + hot globals, high IPC, "
            "few ambiguous stores, modest forwarding.",
            load_frac=0.26,
            store_frac=0.09,
            branch_frac=0.12,
            stream_frac=0.35,
            stack_frac=0.15,
            global_frac=0.25,
            heap_bytes=1 << 18,
            dep_distance=20.0,
            root_frac=0.25,
            ambiguous_store_frac=0.02,
            collision_frac=0.02,
            forward_frac=0.07,
            redundancy_frac=0.088,
            hard_branch_frac=0.08,
            seed=101,
        ),
        _profile(
            "crafty",
            "Chess: hot global bitboard tables, deep ILP, heavy load "
            "redundancy (peak RLE speedup in the paper).",
            load_frac=0.28,
            store_frac=0.08,
            branch_frac=0.13,
            global_frac=0.45,
            stack_frac=0.20,
            stream_frac=0.02,
            global_words=512,
            heap_bytes=1 << 15,
            dep_distance=18.0,
            root_frac=0.22,
            redundancy_frac=0.165,
            redundancy_distance=28.0,
            forward_frac=0.09,
            ambiguous_store_frac=0.0193,
            collision_frac=0.03,
            imul_frac=0.02,
            seed=102,
        ),
        _profile(
            "eon.cook",
            "Raytracer (cook input): stack-heavy C++ with frequent reads of "
            "recently-written locals -- highest SSQ+SVW re-execution rate.",
            load_frac=0.27,
            store_frac=0.16,
            branch_frac=0.10,
            stack_frac=0.55,
            global_frac=0.12,
            stream_frac=0.02,
            heap_bytes=1 << 14,
            falu_frac=0.06,
            dep_distance=22.0,
            root_frac=0.25,
            forward_frac=0.22,
            forward_distance=14.0,
            redundancy_frac=0.099,
            ambiguous_store_frac=0.0007,
            collision_frac=0.02,
            hard_branch_frac=0.06,
            seed=103,
        ),
        _profile(
            "eon.kajiya",
            "Raytracer (kajiya input): like eon.cook with slightly more "
            "computation per memory op.",
            load_frac=0.26,
            store_frac=0.15,
            branch_frac=0.10,
            stack_frac=0.52,
            global_frac=0.14,
            stream_frac=0.02,
            heap_bytes=1 << 14,
            falu_frac=0.07,
            dep_distance=22.0,
            root_frac=0.26,
            forward_frac=0.20,
            forward_distance=15.0,
            redundancy_frac=0.094,
            ambiguous_store_frac=0.02,
            collision_frac=0.02,
            hard_branch_frac=0.06,
            seed=104,
        ),
        _profile(
            "eon.rushmeier",
            "Raytracer (rushmeier input): least memory-intensive eon run.",
            load_frac=0.25,
            store_frac=0.14,
            branch_frac=0.10,
            stack_frac=0.50,
            global_frac=0.15,
            stream_frac=0.02,
            heap_bytes=1 << 14,
            falu_frac=0.07,
            dep_distance=23.0,
            root_frac=0.27,
            forward_frac=0.18,
            forward_distance=16.0,
            redundancy_frac=0.088,
            ambiguous_store_frac=0.0023,
            collision_frac=0.02,
            hard_branch_frac=0.06,
            seed=105,
        ),
        _profile(
            "gap",
            "Group theory interpreter: large heap working set, moderate "
            "forwarding through interpreter stack.",
            load_frac=0.27,
            store_frac=0.13,
            branch_frac=0.13,
            stack_frac=0.28,
            global_frac=0.20,
            stream_frac=0.05,
            heap_bytes=1 << 19,
            dep_distance=14.0,
            forward_frac=0.12,
            redundancy_frac=0.099,
            ambiguous_store_frac=0.0071,
            collision_frac=0.03,
            hard_branch_frac=0.12,
            seed=106,
        ),
        _profile(
            "gcc",
            "Compiler: huge static footprint, branchy, moderate ambiguity "
            "from tree/rtl pointer stores.",
            load_frac=0.25,
            store_frac=0.14,
            branch_frac=0.17,
            stack_frac=0.30,
            global_frac=0.22,
            stream_frac=0.03,
            heap_bytes=1 << 18,
            static_alu_pcs=2048,
            static_load_pcs=640,
            static_store_pcs=384,
            static_branches=384,
            dep_distance=12.0,
            forward_frac=0.13,
            redundancy_frac=0.11,
            ambiguous_store_frac=0.0966,
            collision_frac=0.04,
            hard_branch_frac=0.18,
            hard_branch_bias=0.62,
            seed=107,
        ),
        _profile(
            "gzip",
            "LZ77 compressor: streaming window accesses, small hot loop, "
            "lowest branch footprint.  (Paper: only program with a slight "
            "slowdown under NLQ-LS+SVW, -0.2%.)",
            load_frac=0.24,
            store_frac=0.10,
            branch_frac=0.13,
            stream_frac=0.40,
            stack_frac=0.12,
            global_frac=0.22,
            heap_bytes=1 << 17,
            static_alu_pcs=192,
            static_load_pcs=64,
            static_branches=48,
            dep_distance=16.0,
            forward_frac=0.06,
            redundancy_frac=0.077,
            ambiguous_store_frac=0.0365,
            collision_frac=0.02,
            hard_branch_frac=0.10,
            seed=108,
        ),
        _profile(
            "mcf",
            "Network simplex: pointer chasing over a huge working set; "
            "memory bound with low ILP.",
            load_frac=0.30,
            store_frac=0.09,
            branch_frac=0.15,
            stack_frac=0.08,
            global_frac=0.07,
            stream_frac=0.02,
            heap_bytes=1 << 21,
            dep_distance=6.0,
            root_frac=0.08,
            forward_frac=0.05,
            redundancy_frac=0.066,
            redundancy_distance=60.0,
            ambiguous_store_frac=0.0657,
            collision_frac=0.03,
            hard_branch_frac=0.20,
            hard_branch_bias=0.65,
            seed=109,
        ),
        _profile(
            "parser",
            "Link grammar parser: recursive with stack traffic and real "
            "collisions (paper: 3.5% slowdown from 8.5% natural NLQ rate).",
            load_frac=0.26,
            store_frac=0.13,
            branch_frac=0.15,
            stack_frac=0.38,
            global_frac=0.18,
            stream_frac=0.02,
            heap_bytes=1 << 17,
            dep_distance=11.0,
            forward_frac=0.14,
            forward_distance=18.0,
            redundancy_frac=0.094,
            ambiguous_store_frac=0.007,
            collision_frac=0.05,
            hard_branch_frac=0.16,
            seed=110,
        ),
        _profile(
            "perl.diffmail",
            "Perl interpreter (diffmail): hash/string ops; loads collide "
            "with genuinely-recent stores, so SVW filters least here "
            "(paper: 2.6% residual re-execution, the maximum).",
            load_frac=0.27,
            store_frac=0.15,
            branch_frac=0.15,
            stack_frac=0.34,
            global_frac=0.20,
            stream_frac=0.03,
            heap_bytes=1 << 17,
            dep_distance=11.0,
            forward_frac=0.17,
            forward_distance=10.0,
            redundancy_frac=0.088,
            ambiguous_store_frac=0.0125,
            collision_frac=0.07,
            hard_branch_frac=0.15,
            seed=111,
        ),
        _profile(
            "perl.splitmail",
            "Perl interpreter (splitmail): like diffmail, slightly less "
            "collision-prone.",
            load_frac=0.27,
            store_frac=0.14,
            branch_frac=0.15,
            stack_frac=0.33,
            global_frac=0.20,
            stream_frac=0.03,
            heap_bytes=1 << 17,
            dep_distance=11.5,
            forward_frac=0.15,
            forward_distance=12.0,
            redundancy_frac=0.088,
            ambiguous_store_frac=0.0014,
            collision_frac=0.05,
            hard_branch_frac=0.14,
            seed=112,
        ),
        _profile(
            "twolf",
            "Place-and-route: pointer-dependent stores dominate, producing "
            "the paper's highest NLQ-LS marking rate (~20%).",
            load_frac=0.27,
            store_frac=0.12,
            branch_frac=0.14,
            stack_frac=0.20,
            global_frac=0.25,
            stream_frac=0.02,
            heap_bytes=1 << 16,
            dep_distance=10.0,
            forward_frac=0.10,
            redundancy_frac=0.088,
            ambiguous_store_frac=0.0221,
            collision_frac=0.04,
            hard_branch_frac=0.16,
            seed=113,
        ),
        _profile(
            "vortex",
            "OO database: highest IPC + heaviest forwarding at long "
            "distances (needs >16 FSQ entries per the paper) and the top "
            "RLE elimination rate (42%).",
            load_frac=0.29,
            store_frac=0.17,
            branch_frac=0.11,
            stack_frac=0.42,
            global_frac=0.18,
            stream_frac=0.02,
            heap_bytes=1 << 16,
            dep_distance=26.0,
            root_frac=0.30,
            forward_frac=0.26,
            forward_distance=40.0,
            forward_pcs=48,
            redundancy_frac=0.176,
            redundancy_distance=30.0,
            ambiguous_store_frac=0.02,
            collision_frac=0.02,
            hard_branch_frac=0.05,
            silent_store_frac=0.30,
            seed=114,
        ),
        _profile(
            "vpr.place",
            "FPGA placement: annealing moves with high redundancy "
            "(paper: 9.2% peak RLE speedup alongside crafty).",
            load_frac=0.27,
            store_frac=0.11,
            branch_frac=0.14,
            stack_frac=0.22,
            global_frac=0.28,
            stream_frac=0.02,
            heap_bytes=1 << 16,
            dep_distance=13.0,
            forward_frac=0.10,
            redundancy_frac=0.154,
            redundancy_distance=24.0,
            ambiguous_store_frac=0.0167,
            collision_frac=0.04,
            hard_branch_frac=0.14,
            seed=115,
        ),
        _profile(
            "vpr.route",
            "FPGA routing: larger working set than placement; the paper's "
            "SSBF-sensitivity outlier (most affected by SSBF aliasing).",
            load_frac=0.28,
            store_frac=0.11,
            branch_frac=0.14,
            stack_frac=0.15,
            global_frac=0.15,
            stream_frac=0.04,
            heap_bytes=1 << 19,
            dep_distance=12.0,
            forward_frac=0.09,
            redundancy_frac=0.099,
            ambiguous_store_frac=0.02,
            collision_frac=0.04,
            hard_branch_frac=0.14,
            sub_quad_frac=0.30,
            seed=116,
        ),
    ]
}

#: Order used in the paper's figures.
SPEC_ORDER = [
    "bzip2",
    "crafty",
    "eon.cook",
    "eon.kajiya",
    "eon.rushmeier",
    "gap",
    "gcc",
    "gzip",
    "mcf",
    "parser",
    "perl.diffmail",
    "perl.splitmail",
    "twolf",
    "vortex",
    "vpr.place",
    "vpr.route",
]

#: Short names as they appear on the paper's x-axes.
SPEC_SHORT_NAMES = {
    "bzip2": "bzip2",
    "crafty": "crafty",
    "eon.cook": "eon.c",
    "eon.kajiya": "eon.k",
    "eon.rushmeier": "eon.r",
    "gap": "gap",
    "gcc": "gcc",
    "gzip": "gzip",
    "mcf": "mcf",
    "parser": "parser",
    "perl.diffmail": "perl.d",
    "perl.splitmail": "perl.s",
    "twolf": "twolf",
    "vortex": "vortex",
    "vpr.place": "vpr.p",
    "vpr.route": "vpr.r",
}


def spec_profile(name: str) -> WorkloadProfile:
    """Look up a SPEC2000 profile by full or short name."""
    if name in SPEC2000_PROFILES:
        return SPEC2000_PROFILES[name]
    for full, short in SPEC_SHORT_NAMES.items():
        if short == name:
            return SPEC2000_PROFILES[full]
    raise KeyError(f"unknown SPEC2000 profile {name!r}")
