"""Lockstep (SIMT-style) vectorized batch execution.

The fused engine (:mod:`repro.engine.fuse`) already collapses dispatch to
one Python call per basic block — but still *per test*: replaying a pooled
suite of N tests costs N full passes over the same instruction stream, so
dispatch overhead scales with suite size even though every lane executes
the same blocks.  This module removes that axis too.  The
:class:`BatchedEngine` exec-compiles each basic block into a single
function that operates over a *structure-of-arrays machine image*
(:class:`BatchSuite`): registers are ``(11, L)`` uint64 rows, the stack and
packet are ``(L, size)`` byte matrices, and array-like map state is a
``(L, slots × value_size)`` value matrix plus an ``(L, slots)`` dirty-slot
matrix per map — so one handler invocation advances **all** L tests
through the block at once as numpy array ops.  Map lookups, redirects and
packet-extent adjustments vectorize too: array-like maps assign value
addresses by a fixed ``base + slot * value_size`` formula, so a batched
lookup is a stack gather plus an arithmetic select.

Control flow is handled warp-style:

* every handler receives an *active-lane mask* (a boolean array) and
  returns ``(next_pc, mask)`` edges; a conditional jump partitions the mask
  into taken/fall-through halves;
* the runner keeps a ``pending`` worklist keyed by pc and merges masks
  arriving at the same pc — reconvergence at CFG join points — always
  executing the smallest pending pc first so lanes re-merge as early as
  possible (and loop back-edges simply re-enter the worklist);
* lanes that would fault, exceed the step budget inside the next block, or
  reach semantics the vector tier does not model (hash-map traffic, odd
  byteswap widths, unknown helpers) *retire*: they leave the mask and are
  re-executed individually through the inherited fused scalar path, which
  makes their fault text, step count and cost accumulation trivially
  bit-identical to sequential execution.

Uninitialized-register checks are statically elided where a must-
initialized forward dataflow over the CFG proves them (entry state
``{r1, r10}``, helper calls clobber r1–r5); the remaining checks run
vectorized and retire only the offending lanes.  Programs whose jump
structure ``build_cfg`` rejects fall back to the fused tier wholesale, and
when numpy is unavailable the engine *is* the fused engine (the lockstep
tier simply never engages), so no hard dependency is added.

``tests/test_engine_batch.py`` pins lockstep == sequential differentially;
``tests/test_batch_replay.py`` pins the early-exit truncation contracts.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..bpf.cfg import CfgError, build_cfg
from ..bpf.helpers import HelperId, XDP_REDIRECT, helper_spec
from ..bpf.hooks import CtxFieldKind
from ..bpf.instruction import Instruction
from ..bpf.maps import MapState
from ..bpf.opcodes import AluOp, JmpOp, SrcOperand, STACK_SIZE
from ..bpf.program import BpfProgram
from ..bpf.regions import CTX_BASE, MAP_VALUE_BASE, PACKET_BASE, STACK_BASE
from ..interpreter.errors import BpfFault
from ..interpreter.interpreter import DEFAULT_STEP_LIMIT
from ..interpreter.state import (
    MAP_PTR_BASE, MachineState, PACKET_HEADROOM, ProgramInput, ProgramOutput,
)
from ..semantics import to_signed
from .decode import _HELPER_BODIES
from .engine import FusedEngine

try:  # numpy is an accelerator, never a requirement: without it the
    import numpy as _np  # lockstep tier stays dormant and the engine behaves
except ImportError:      # exactly like the fused tier it inherits from.
    _np = None

__all__ = ["BatchedEngine", "BatchSuite", "NUMPY_AVAILABLE"]

NUMPY_AVAILABLE = _np is not None

_U64 = (1 << 64) - 1
_U32 = (1 << 32) - 1
_REGION_SPAN = 0x1000_0000_0000
#: Address window reserved per map fd (mirrors MapState's base formula).
_FD_WINDOW = 0x100_0000
#: Cap on the bytes one map's SoA value matrix may occupy across all lanes;
#: beyond it the map stays scalar (its lanes retire on access).
_MAX_VEC_MAP_BYTES = 32 << 20

#: Batches smaller than this run through the inherited fused sequential
#: path: per-call numpy overhead is amortized across lanes, so lockstep
#: only wins once enough tests execute the same instruction together.
# Below ~48 lanes the per-block numpy dispatch overhead outweighs the
# per-lane amortization and the fused tier is faster; run_batch falls back.
DEFAULT_MIN_LANES = 48

#: Upper bound on the per-block handler memo (churn backstop, mirroring the
#: fused tier's block memo).
_MAX_BLOCK_MEMO = 1 << 14

#: Cached suites (stable test batches) per machine.  The synthesis loop
#: alternates between at most a couple of suites (the chain's test suite
#: and the pipeline's counterexample pool).
_MAX_SUITES = 4

_TOP = frozenset(range(11))
_ENTRY_INIT = frozenset((1, 10))
_HELPER_CLOBBER = frozenset((1, 2, 3, 4, 5))

#: Helpers whose result is a per-lane constant (no argument reads, no
#: state): vectorized as one masked copy from a suite attribute / literal.
_VEC_RESULT_ATTR = {
    HelperId.KTIME_GET_NS: "times",
    HelperId.KTIME_GET_BOOT_NS: "times_boot",
    HelperId.GET_SMP_PROCESSOR_ID: "cpus",
}
_VEC_RESULT_CONST = {
    HelperId.XDP_ADJUST_META: 0,
    HelperId.PERF_EVENT_OUTPUT: 0,
    HelperId.TAIL_CALL: 0,
    HelperId.REDIRECT: XDP_REDIRECT,
}


class _NeedsScalar(Exception):
    """A scalar helper body touched state the SoA image does not model
    (hash-like map contents); the lane retires to the fused path."""


# --------------------------------------------------------------------------- #
# Must-initialized dataflow: which uninitialized-read checks can be elided
# --------------------------------------------------------------------------- #
def _block_transfer(instructions, start: int, end: int,
                    inset: frozenset) -> frozenset:
    """Forward transfer of the must-initialized register set over a block.

    Sound for every lane and every input: a register is in the result only
    if every non-faulting execution of the block writes (or inherits) it.
    Instructions that *always* fault make the rest of the block unreachable,
    so the out-state is irrelevant — return TOP so joins stay unconstrained.
    """
    live = set(inset)
    for pc in range(start, end):
        insn = instructions[pc]
        if insn.is_nop or insn.is_exit or insn.is_unconditional_jump \
                or insn.is_conditional_jump:
            continue
        if insn.is_call:
            live.add(0)
            live -= _HELPER_CLOBBER
        elif insn.is_lddw or insn.is_alu or insn.is_load:
            if insn.dst == 10:
                return _TOP  # always faults (ReadOnlyRegisterWrite)
            live.add(insn.dst)
        # Stores and unknown encodings write no register.
    return frozenset(live)


def _must_init_sets(cfg) -> Dict[int, frozenset]:
    """Per-block must-initialized-at-entry register sets (fixpoint)."""
    blocks = cfg.blocks
    instructions = cfg.instructions
    preds = {block.index: tuple(block.predecessors) for block in blocks}
    in_sets = {block.index: _TOP for block in blocks}
    in_sets[blocks[0].index] = _ENTRY_INIT
    out_sets = {block.index: _TOP for block in blocks}
    changed = True
    while changed:
        changed = False
        for block in blocks:
            inset = _ENTRY_INIT if block.index == blocks[0].index else _TOP
            for pred in preds[block.index]:
                inset = inset & out_sets[pred]
            out = _block_transfer(instructions, block.start, block.end, inset)
            if inset != in_sets[block.index] or out != out_sets[block.index]:
                in_sets[block.index] = inset
                out_sets[block.index] = out
                changed = True
    return {block.start: in_sets[block.index] for block in blocks}


# --------------------------------------------------------------------------- #
# Per-lane scalar proxy for the few helper bodies that stay scalar
# --------------------------------------------------------------------------- #
class _LaneView:
    """One lane of a :class:`BatchSuite`, shaped like a ``MachineState``.

    Byte buffers are memoryviews of the lane's numpy rows (writes land in
    the matrices directly); scalar fields are synced in/out around each
    out-of-line call by the suite.  Only helper bodies that the vector
    tier does not model run against this proxy (fib_lookup, map update /
    delete); touching map contents raises :class:`_NeedsScalar`, retiring
    the lane.
    """

    __slots__ = ("hook", "test", "stack", "stack_initialized",
                 "packet_buffer", "ctx", "regs", "reg_initialized",
                 "packet_start", "packet_end", "_random_cursor",
                 "packet_dirty")

    # Borrowed verbatim: they only touch fields this proxy provides.
    packet_length = MachineState.packet_length
    next_random = MachineState.next_random
    refresh_ctx_packet_pointers = MachineState.refresh_ctx_packet_pointers

    @property
    def maps(self):
        raise _NeedsScalar()


# --------------------------------------------------------------------------- #
# SoA state of one array-like map across all lanes
# --------------------------------------------------------------------------- #
class _VecMap:
    """Per-lane value/dirty matrices plus the static addressing facts of
    one array-like map (fixed base, slot-indexed cells, pre-populated
    keys).  ``val``/``dirty`` are None for maps that vectorize lookups but
    whose memory stays scalar (over the matrix budget)."""

    __slots__ = ("fd", "ptr", "base", "key_size", "value_size",
                 "max_entries", "span", "span_v", "slot_count", "slot_keys",
                 "zero_snapshot", "val", "dirty", "base_val", "base_dirty",
                 "_updates")

    def __init__(self, definition):
        self.fd = definition.fd
        self.base = MAP_VALUE_BASE + definition.fd * _FD_WINDOW
        self.ptr = MAP_PTR_BASE + definition.fd
        self.key_size = definition.key_size
        self.value_size = definition.value_size
        self.max_entries = definition.max_entries
        self.slot_count = definition.max_entries
        self.span = definition.max_entries * definition.value_size
        self.span_v = _np.uint64(self.span) if _np is not None else None
        self.slot_keys = [index.to_bytes(definition.key_size, "little")
                          for index in range(definition.max_entries)]
        self.zero_snapshot = dict.fromkeys(self.slot_keys,
                                           bytes(definition.value_size))
        self.val = self.dirty = self.base_val = self.base_dirty = None
        self._updates = None

    def seal(self) -> None:
        """Pre-assemble (slot, value_bytes) updates for every dirty lane in
        one bulk ``nonzero`` + ``tobytes`` pass; per-lane numpy scalar work
        dominates output assembly otherwise."""
        updates: Dict[int, list] = {}
        if self.dirty.any():
            lanes_idx, slots_idx = _np.nonzero(self.dirty)
            blob = self.val.tobytes()
            row_span = self.val.shape[1]
            value_size = self.value_size
            for lane, slot in zip(lanes_idx.tolist(), slots_idx.tolist()):
                start = lane * row_span + slot * value_size
                updates.setdefault(lane, []).append(
                    (slot, blob[start:start + value_size]))
        self._updates = updates

    def lane_snapshot(self, lane: int) -> dict:
        pairs = self._updates.get(lane)
        if pairs is None:
            return self.zero_snapshot
        snap = dict(self.zero_snapshot)
        slot_keys = self.slot_keys
        for slot, value in pairs:
            snap[slot_keys[slot]] = value
        return snap


# --------------------------------------------------------------------------- #
# SoA state of one hash-like map across all lanes
# --------------------------------------------------------------------------- #
class _HashMap:
    """Vectorized view of a hash-like map's *initial* contents.

    Non-retired lanes can never mutate a hash map's key set (update and
    delete retire the lane before touching state), so each lane's
    key→address table and slot layout are fixed at suite build: lookups
    become per-lane dict probes on the gathered key, and value memory is a
    matrix addressed by ``address - base`` exactly like MapState's
    sequential allocator laid it out.  Value *stores* stay vectorized too —
    they change bytes, not layout — with dirty rows triggering a full
    snapshot rebuild at output time (hash snapshots are full dicts)."""

    __slots__ = ("fd", "ptr", "base", "key_size", "value_size", "val",
                 "dirty", "base_val", "base_dirty", "span_v", "slot_count",
                 "lane_probes", "lane_slot_keys", "statics", "n_slots",
                 "dense", "_dirty_l", "_blob")

    def __init__(self, definition, map_images, lanes: int):
        self.fd = definition.fd
        self.base = MAP_VALUE_BASE + definition.fd * _FD_WINDOW
        self.ptr = MAP_PTR_BASE + definition.fd
        self.key_size = definition.key_size
        self.value_size = definition.value_size
        value_size = definition.value_size
        base = self.base
        n_slots = max(map_image[2] for map_image in map_images)
        self.n_slots = n_slots
        self.slot_count = max(n_slots, 1)
        self.span_v = _np.array(
            [map_image[2] * value_size for map_image in map_images],
            dtype=_np.uint64)
        self.lane_probes = []
        self.lane_slot_keys = []
        self.statics = [map_image[0] for map_image in map_images]
        self.base_val = _np.zeros((lanes, n_slots * value_size),
                                  dtype=_np.uint8)
        # Memory claims treat [base, base + next_slot * value_size) as one
        # dense run of live cells, which only matches value_access when no
        # allocated slot was freed: require every address below the
        # high-water mark to be live.
        dense = True
        for lane, map_image in enumerate(map_images):
            entries, addresses, next_slot, _ = map_image
            if len(entries) != next_slot:
                dense = False
            probe = {}
            slot_keys = []
            for key, value in entries.items():
                address = addresses[key]
                probe[int.from_bytes(key, "little")] = address
                slot = (address - base) // value_size
                slot_keys.append((slot, key))
                self.base_val[lane,
                              slot * value_size:(slot + 1) * value_size] = \
                    _np.frombuffer(value, dtype=_np.uint8)
            self.lane_probes.append(probe)
            self.lane_slot_keys.append(slot_keys)
        self.dense = dense
        self.val = self.base_val.copy()
        self.dirty = _np.zeros((lanes, self.slot_count), dtype=bool)
        self.base_dirty = _np.zeros((lanes, self.slot_count), dtype=bool)
        self._dirty_l = None
        self._blob = None

    def seal(self) -> None:
        if self.dirty.any():
            self._dirty_l = self.dirty.any(axis=1).tolist()
            self._blob = self.val.tobytes()
        else:
            self._dirty_l = None

    def lane_snapshot(self, lane: int) -> dict:
        dirty_l = self._dirty_l
        if dirty_l is None or not dirty_l[lane]:
            return self.statics[lane]
        blob = self._blob
        value_size = self.value_size
        base = lane * self.val.shape[1]
        return {key: blob[base + slot * value_size:
                          base + (slot + 1) * value_size]
                for slot, key in self.lane_slot_keys[lane]}


# --------------------------------------------------------------------------- #
# The SoA machine image
# --------------------------------------------------------------------------- #
class BatchSuite:
    """Structure-of-arrays machine image for one stable test batch.

    Built once per (engine machine, test batch) from the per-test reset
    images the fused tier already caches; :meth:`rewind` restores the whole
    matrix for the next candidate with a handful of bulk copies.  Generated
    block handlers receive this object as ``B`` and manipulate the arrays
    through masked numpy ops plus the memory/helper methods below.
    """

    def __init__(self, hook, maps_env, images: Sequence[tuple], strict: bool,
                 step_limit: int):
        self.hook = hook
        self.strict = strict
        lanes = len(images)
        self.lanes = lanes
        tests = [image[0] for image in images]
        self.tests = tests

        caps = [len(image[1]) for image in images]
        width = max(caps)
        ctx_size = max(len(images[0][2]), 1)

        base_pkt = _np.zeros((lanes, width), dtype=_np.uint8)
        for index, image in enumerate(images):
            base_pkt[index, :caps[index]] = _np.frombuffer(
                image[1], dtype=_np.uint8)
        self.base_pkt = base_pkt
        self.base_ctx = _np.frombuffer(
            b"".join(image[2] for image in images),
            dtype=_np.uint8).reshape(lanes, ctx_size).copy()
        self.base_end = _np.array([image[4] for image in images],
                                  dtype=_np.uint64)
        self.base_end_l = [int(end) for end in self.base_end]
        self.packet_out = [image[5] for image in images]
        self.caps = caps
        self.capsv = _np.array(caps, dtype=_np.int64)

        # Working state (SoA): one row / column per lane.
        self.R2 = _np.zeros((11, lanes), dtype=_np.uint64)
        self.R = [self.R2[reg] for reg in range(11)]
        self.I2 = _np.zeros((11, lanes), dtype=bool)
        self.I = [self.I2[reg] for reg in range(11)]
        self._base_regs = _np.zeros((11, 1), dtype=_np.uint64)
        self._base_regs[1, 0] = CTX_BASE
        self._base_regs[10, 0] = STACK_BASE + STACK_SIZE
        self._base_init = _np.zeros((11, 1), dtype=bool)
        self._base_init[1, 0] = True
        self._base_init[10, 0] = True
        self.stk = _np.zeros((lanes, STACK_SIZE), dtype=_np.uint8)
        self.SI = _np.zeros((lanes, STACK_SIZE), dtype=_np.uint8)
        self.pkt = base_pkt.copy()
        self.ctxm = self.base_ctx.copy()
        self.starts = _np.full(lanes, PACKET_HEADROOM, dtype=_np.uint64)
        self.ends = self.base_end.copy()
        self.S = _np.zeros(lanes, dtype=_np.int64)
        self.E = _np.zeros(lanes, dtype=_np.float64)
        self.PD = _np.zeros(lanes, dtype=bool)
        self.done = _np.zeros(lanes, dtype=bool)
        self.ret = _np.zeros(lanes, dtype=_np.uint64)
        self.retired = _np.zeros(lanes, dtype=bool)
        self.cursors = [0] * lanes

        # Per-lane helper constants (ktime / smp / prandom sources).
        self.times = _np.array([test.time_ns & _U64 for test in tests],
                               dtype=_np.uint64)
        self.times_boot = (self.times + _np.uint64(1))
        self.cpus = _np.array([test.cpu_id & _U32 for test in tests],
                              dtype=_np.uint64)
        self.rand_vals = [tuple(value & _U32 for value in
                                (test.random_values or [0]))
                          for test in tests]

        # Ctx packet-pointer fields, re-derived after adjust_head/tail.
        self.ctx_ptr_fields = [
            (field.offset, field.size,
             field.kind == CtxFieldKind.PACKET_END_PTR)
            for field in hook.fields
            if field.kind in (CtxFieldKind.PACKET_PTR,
                              CtxFieldKind.PACKET_END_PTR)]

        self._build_maps(maps_env, images, step_limit)

    # ------------------------------------------------------------------ #
    def _build_maps(self, maps_env, images, step_limit: int) -> None:
        """SoA map state: value matrices for array-like *and* hash-like
        maps, static snapshots for everything a non-retired lane can never
        touch.

        Memory claims (load/store routing by address range) are only sound
        when no map's live values can escape its fd window.  Maps cannot
        grow under the vector tier — array slots are all pre-allocated and
        hash update/delete retire the lane before touching state — so the
        check is simply that every map's *initial* extent fits its window.
        Any violation turns off the map-memory fast path wholesale (those
        lanes retire); the lookup fast path reproduces MapState's allocator
        addresses exactly, so it stays on regardless.
        """
        lanes = self.lanes
        per_fd: Dict[int, list] = {}
        for image in images:
            for fd, map_image in image[3]:
                per_fd.setdefault(fd, []).append(map_image)

        # A non-retired lane can never grow a map (hash update / delete
        # retire the lane before touching state; array slots are all
        # pre-allocated), so a map's live values stay inside its fd window
        # exactly when its *initial* extent fits.
        mem_ok = True
        for fd in maps_env.fds():
            definition = maps_env.definition(fd)
            if definition.map_type in MapState._ARRAY_LIKE:
                extent = definition.max_entries * definition.value_size
            else:
                extent = max((map_image[2] for map_image
                              in per_fd.get(fd, [])), default=0) \
                    * definition.value_size
            if extent > _FD_WINDOW:
                mem_ok = False

        self.lookup_maps: List[_VecMap] = []
        self.hash_lookups: List[_HashMap] = []
        self.mem_maps: List = []
        self.redirect_specs = []
        #: Output plan, in fd order: (fd, vec_map_or_None, static_snaps).
        self.out_plan: List[tuple] = []
        for fd in maps_env.fds():
            definition = maps_env.definition(fd)
            self.redirect_specs.append(
                (_np.uint64(MAP_PTR_BASE + fd),
                 _np.uint64(definition.max_entries)))
            if definition.map_type not in MapState._ARRAY_LIKE:
                hm = _HashMap(definition, per_fd[fd], lanes)
                if hm.key_size in (1, 2, 4, 8):
                    self.hash_lookups.append(hm)
                if mem_ok and hm.dense and hm.n_slots \
                        and hm.n_slots * hm.value_size * lanes \
                        <= _MAX_VEC_MAP_BYTES:
                    self.mem_maps.append(hm)
                    self.out_plan.append((fd, hm, None))
                else:
                    # Memory traffic retires; a non-retired lane's
                    # snapshot is its initial (per-test) contents.
                    self.out_plan.append((fd, None, hm.statics))
                continue
            vm = _VecMap(definition)
            if vm.key_size in (1, 2, 4, 8):
                self.lookup_maps.append(vm)
            if mem_ok and vm.span <= _FD_WINDOW \
                    and vm.span * lanes <= _MAX_VEC_MAP_BYTES:
                vm.base_val = _np.zeros((lanes, vm.span), dtype=_np.uint8)
                vm.base_dirty = _np.zeros((lanes, vm.max_entries),
                                          dtype=bool)
                value_size = vm.value_size
                for lane, map_image in enumerate(per_fd[fd]):
                    for key, value in map_image[0].items():
                        slot = int.from_bytes(key, "little")
                        vm.base_val[lane,
                                    slot * value_size:(slot + 1) * value_size] \
                            = _np.frombuffer(value, dtype=_np.uint8)
                        vm.base_dirty[lane, slot] = True
                vm.val = vm.base_val.copy()
                vm.dirty = vm.base_dirty.copy()
                self.mem_maps.append(vm)
                self.out_plan.append((fd, vm, None))
            else:
                # Lookups may still vectorize; memory traffic retires, so
                # a non-retired lane's contents equal its initial image.
                statics = [vm.zero_snapshot if not map_image[0]
                           else {**vm.zero_snapshot, **map_image[0]}
                           for map_image in per_fd[fd]]
                self.out_plan.append((fd, None, statics))

        # Per-lane scalar proxies (fib_lookup and map update/delete only).
        self.lane_views = []
        for index in range(lanes):
            view = _LaneView()
            view.hook = self.hook
            view.test = self.tests[index]
            view.stack = memoryview(self.stk[index])
            view.stack_initialized = memoryview(self.SI[index])
            view.packet_buffer = memoryview(self.pkt[index,
                                                     :self.caps[index]])
            view.ctx = memoryview(self.ctxm[index])
            view.regs = [0] * 11
            view.reg_initialized = [False] * 11
            view.packet_start = PACKET_HEADROOM
            view.packet_end = self.base_end_l[index]
            view._random_cursor = 0
            view.packet_dirty = False
            self.lane_views.append(view)

    # ------------------------------------------------------------------ #
    def rewind(self) -> None:
        """Reset every lane for the next candidate (bulk matrix copies)."""
        self.R2[:] = self._base_regs
        self.I2[:] = self._base_init
        self.stk[:] = 0
        self.SI[:] = 0
        self.pkt[:] = self.base_pkt
        self.ctxm[:] = self.base_ctx
        self.starts[:] = PACKET_HEADROOM
        self.ends[:] = self.base_end
        self.S[:] = 0
        self.E[:] = 0
        self.PD[:] = False
        self.done[:] = False
        self.ret[:] = 0
        self.retired[:] = False
        self.cursors = [0] * self.lanes
        for vm in self.mem_maps:
            vm.val[:] = vm.base_val
            vm.dirty[:] = vm.base_dirty

    def mask_all(self):
        return _np.ones(self.lanes, dtype=bool)

    # ------------------------------------------------------------------ #
    # Lane retirement and bookkeeping used by generated handlers
    # ------------------------------------------------------------------ #
    def drop(self, mask, bad):
        """Retire ``bad`` lanes (re-run later via the scalar path)."""
        self.retired |= bad
        return mask & ~bad

    def force_retire(self, bad) -> None:
        self.retired |= bad

    def add_steps(self, mask, count: int) -> None:
        _np.add(self.S, count, out=self.S, where=mask)

    def exit_lanes(self, mask, values) -> None:
        _np.copyto(self.ret, values, where=mask)
        self.done |= mask

    # ------------------------------------------------------------------ #
    # Vectorized memory: stack column fast path (r10 + constant offset)
    # ------------------------------------------------------------------ #
    def stack_load_k(self, mask, k: int, width: int, dst: int):
        if self.strict:
            ok = self.SI[:, k:k + width].all(axis=1)
            bad = mask & ~ok
            if bad.any():
                mask = self.drop(mask, bad)
                if not mask.any():
                    return mask
        column = self.stk[:, k:k + width]
        if width == 1:
            values = column[:, 0].astype(_np.uint64)
        else:
            values = column.view(f"<u{width}")[:, 0].astype(_np.uint64)
        _np.copyto(self.R[dst], values, where=mask)
        if self.strict:
            self.I[dst][mask] = True
        return mask

    def stack_store_k(self, mask, k: int, width: int, kind: str,
                      src: int, imm: int):
        lanes = _np.flatnonzero(mask)
        if not lanes.size:
            return mask
        value_mask = (1 << (8 * width)) - 1
        if kind == "imm":
            values = _np.full(lanes.size, imm & value_mask, dtype=_np.uint64)
        else:
            values = self.R[src][lanes]
            if kind == "xadd":
                column = self.stk[:, k:k + width]
                if width == 1:
                    current = column[:, 0].astype(_np.uint64)[lanes]
                else:
                    current = column.view(f"<u{width}")[:, 0] \
                        .astype(_np.uint64)[lanes]
                values = values + current
            values = values & _np.uint64(value_mask)
        self._scatter_bytes(self.stk, lanes, _np.full(
            lanes.size, k, dtype=_np.int64), width, values)
        self.SI[lanes, k:k + width] = 1
        return mask

    # ------------------------------------------------------------------ #
    # Vectorized memory: general loads/stores with region partitioning
    # ------------------------------------------------------------------ #
    def _gather_bytes(self, matrix, lanes, offsets, width: int):
        """(n,) uint64 little-endian reads at per-lane offsets."""
        flat = matrix.reshape(-1)
        base = lanes * matrix.shape[1] + offsets
        if width == 1:
            return flat[base].astype(_np.uint64)
        index = base[:, None] + _np.arange(width, dtype=_np.int64)
        return flat[index].view(f"<u{width}")[:, 0].astype(_np.uint64)

    def _scatter_bytes(self, matrix, lanes, offsets, width: int,
                       values) -> None:
        """Little-endian writes of ``values`` at per-lane offsets."""
        flat = matrix.reshape(-1)
        base = lanes * matrix.shape[1] + offsets
        if width == 1:
            flat[base] = (values & _np.uint64(0xFF)).astype(_np.uint8)
            return
        shifts = _np.arange(width, dtype=_np.uint64) * _np.uint64(8)
        data = ((values[:, None] >> shifts) & _np.uint64(0xFF)) \
            .astype(_np.uint8)
        index = base[:, None] + _np.arange(width, dtype=_np.int64)
        flat[index] = data

    def load(self, mask, addr, width: int, dst: int, rebase: tuple):
        """Vectorized MEM load: region-partitioned gathers; lanes whose
        address the SoA image does not model (over-budget map values,
        garbage, NULL) retire to the scalar path."""
        values = _np.zeros(self.lanes, dtype=_np.uint64)
        span = _np.uint64(_REGION_SPAN)
        w64 = _np.uint64(width)

        off_p = addr - _np.uint64(PACKET_BASE)
        in_p = mask & (off_p < span)
        rest = mask ^ in_p
        if in_p.any():
            bad = in_p & ~((off_p >= self.starts) & (off_p <= self.ends - w64))
            if bad.any():
                mask = self.drop(mask, bad)
                in_p &= ~bad
            if in_p.any():
                lanes = _np.flatnonzero(in_p)
                offs = off_p[lanes].astype(_np.int64)
                values[lanes] = self._gather_bytes(self.pkt, lanes, offs,
                                                   width)
        if rest.any():
            off_c = addr - _np.uint64(CTX_BASE)
            in_c = rest & (off_c < span)
            rest = rest ^ in_c
            if in_c.any():
                ctx_size = self.ctxm.shape[1]
                bad = in_c & ~(off_c <= _np.uint64(ctx_size - width))
                if bad.any():
                    mask = self.drop(mask, bad)
                    in_c &= ~bad
                if in_c.any():
                    lanes = _np.flatnonzero(in_c)
                    offs = off_c[lanes].astype(_np.int64)
                    values[lanes] = self._gather_bytes(self.ctxm, lanes,
                                                       offs, width)
                    if rebase:
                        hit = _np.zeros(self.lanes, dtype=bool)
                        for offset in rebase:
                            hit |= in_c & (off_c == _np.uint64(offset))
                        if hit.any():
                            _np.copyto(values,
                                       values + _np.uint64(PACKET_BASE),
                                       where=hit)
        if rest.any():
            off_s = addr - _np.uint64(STACK_BASE)
            in_s = rest & (off_s < span)
            rest = rest ^ in_s
            if in_s.any():
                bad = in_s & ~(off_s <= _np.uint64(STACK_SIZE - width))
                if bad.any():
                    mask = self.drop(mask, bad)
                    in_s &= ~bad
                if in_s.any():
                    lanes = _np.flatnonzero(in_s)
                    offs = off_s[lanes].astype(_np.int64)
                    if self.strict:
                        flat = self.SI.reshape(-1)
                        base = lanes * STACK_SIZE + offs
                        if width == 1:
                            ok = flat[base] != 0
                        else:
                            index = base[:, None] + _np.arange(
                                width, dtype=_np.int64)
                            ok = flat[index].all(axis=1)
                        if not ok.all():
                            bad = _np.zeros(self.lanes, dtype=bool)
                            bad[lanes[~ok]] = True
                            mask = self.drop(mask, bad)
                            lanes = lanes[ok]
                            offs = offs[ok]
                    if lanes.size:
                        values[lanes] = self._gather_bytes(self.stk, lanes,
                                                           offs, width)
        if rest.any():
            for vm in self.mem_maps:
                off_m = addr - _np.uint64(vm.base)
                in_m = rest & (off_m < vm.span_v)
                if not in_m.any():
                    continue
                rest = rest ^ in_m
                vs = _np.uint64(vm.value_size)
                cell = off_m - (off_m // vs) * vs
                bad = in_m & (cell + w64 > vs)
                if bad.any():
                    mask = self.drop(mask, bad)
                    in_m &= ~bad
                if in_m.any():
                    lanes = _np.flatnonzero(in_m)
                    offs = off_m[lanes].astype(_np.int64)
                    values[lanes] = self._gather_bytes(vm.val, lanes, offs,
                                                       width)
                if not rest.any():
                    break
        if rest.any():
            mask = self.drop(mask, rest)

        _np.copyto(self.R[dst], values, where=mask)
        if self.strict:
            self.I[dst][mask] = True
        return mask

    def store(self, mask, addr, width: int, kind: str, src: int, imm: int):
        """Vectorized MEM store (packet/stack/map-value fast paths).

        Mirrors the decoded fault order observably: every fault path
        retires the lane, and no lane's state is written before all of its
        own checks pass.  ``xadd`` vectorizes as gather + add + scatter.
        """
        span = _np.uint64(_REGION_SPAN)
        w64 = _np.uint64(width)
        value_mask = (1 << (8 * width)) - 1

        off_p = addr - _np.uint64(PACKET_BASE)
        in_p = mask & (off_p < span)
        rest = mask ^ in_p
        if in_p.any():
            bad = in_p & ~((off_p >= self.starts) & (off_p <= self.ends - w64))
            if bad.any():
                mask = self.drop(mask, bad)
                in_p &= ~bad
        in_s = _np.zeros(self.lanes, dtype=bool)
        map_claims: List[tuple] = []
        if rest.any():
            off_c = addr - _np.uint64(CTX_BASE)
            in_c = rest & (off_c < span)
            rest = rest ^ in_c
            if in_c.any():
                # Every ctx store faults (bad bounds or "stores to ctx
                # memory are not permitted"); scalar replay recovers the
                # exact message.
                mask = self.drop(mask, in_c)
        if rest.any():
            off_s = addr - _np.uint64(STACK_BASE)
            in_s = rest & (off_s < span)
            rest = rest ^ in_s
            if in_s.any():
                bad = in_s & ~(off_s <= _np.uint64(STACK_SIZE - width))
                if bad.any():
                    mask = self.drop(mask, bad)
                    in_s &= ~bad
        if rest.any():
            for vm in self.mem_maps:
                off_m = addr - _np.uint64(vm.base)
                in_m = rest & (off_m < vm.span_v)
                if not in_m.any():
                    continue
                rest = rest ^ in_m
                vs = _np.uint64(vm.value_size)
                slots = off_m // vs
                cell = off_m - slots * vs
                bad = in_m & (cell + w64 > vs)
                if bad.any():
                    mask = self.drop(mask, bad)
                    in_m &= ~bad
                if in_m.any():
                    map_claims.append((vm, in_m, off_m, slots))
                if not rest.any():
                    break
        if rest.any():
            mask = self.drop(mask, rest)

        if kind != "imm" and self.strict:
            # Source read happens after address resolution in the decoded
            # order, so check it only on lanes that passed bounds.
            bad = mask & ~self.I[src]
            if bad.any():
                mask = self.drop(mask, bad)
                in_p &= mask
                in_s &= mask
                map_claims = [(vm, in_m & mask, off_m, slots)
                              for vm, in_m, off_m, slots in map_claims]

        if in_p.any():
            lanes = _np.flatnonzero(in_p)
            offs = off_p[lanes].astype(_np.int64)
            values = self._store_values(kind, src, imm, lanes, value_mask,
                                        self.pkt, offs)
            self._scatter_bytes(self.pkt, lanes, offs, width, values)
            self.PD[lanes] = True
        if in_s.any():
            lanes = _np.flatnonzero(in_s)
            offs = (addr - _np.uint64(STACK_BASE))[lanes].astype(_np.int64)
            values = self._store_values(kind, src, imm, lanes, value_mask,
                                        self.stk, offs)
            self._scatter_bytes(self.stk, lanes, offs, width, values)
            flat = self.SI.reshape(-1)
            base = lanes * STACK_SIZE + offs
            if width == 1:
                flat[base] = 1
            else:
                index = base[:, None] + _np.arange(width, dtype=_np.int64)
                flat[index] = 1
        for vm, in_m, off_m, slots in map_claims:
            if not in_m.any():
                continue
            lanes = _np.flatnonzero(in_m)
            offs = off_m[lanes].astype(_np.int64)
            values = self._store_values(kind, src, imm, lanes, value_mask,
                                        vm.val, offs)
            self._scatter_bytes(vm.val, lanes, offs, width, values)
            vm.dirty.reshape(-1)[lanes * vm.slot_count
                                 + slots[lanes].astype(_np.int64)] = True
        return mask

    def _store_values(self, kind: str, src: int, imm: int, lanes,
                      value_mask: int, matrix, offs):
        if kind == "imm":
            return _np.full(lanes.size, imm & value_mask, dtype=_np.uint64)
        values = self.R[src][lanes]
        if kind == "xadd":
            width = value_mask.bit_length() // 8
            values = values + self._gather_bytes(matrix, lanes, offs, width)
        return values & _np.uint64(value_mask)

    # ------------------------------------------------------------------ #
    # Vectorized helpers
    # ------------------------------------------------------------------ #
    def _post_call(self, mask) -> None:
        """Register effects shared by every helper: r0 written, r1–r5
        clobbered (values keep, init flags drop)."""
        if self.strict:
            self.I[0] |= mask
            self.I2[1:6] &= ~mask

    def vec_helper_result(self, mask, values):
        """A helper whose result is a constant / per-lane precomputed
        value and which reads no registers and mutates no state."""
        _np.copyto(self.R[0], values, where=mask)
        self._post_call(mask)
        return mask

    def vec_map_lookup(self, mask):
        """bpf_map_lookup_elem: a stack gather of the key, then either the
        allocator's slot-address formula (array-like maps) or a per-lane
        probe of the frozen key→address table (hash-like maps — frozen
        because update/delete retire the lane before mutating).  Lanes with
        an unvectorized map reference or a non-stack key pointer retire."""
        if self.strict:
            bad = mask & ~(self.I[1] & self.I[2])
            if bad.any():
                mask = self.drop(mask, bad)
                if not mask.any():
                    return mask
        r1 = self.R[1]
        out = _np.zeros(self.lanes, dtype=_np.uint64)
        claimed = _np.zeros(self.lanes, dtype=bool)
        for vm in self.lookup_maps:
            m_fd = mask & (r1 == _np.uint64(vm.ptr))
            if not m_fd.any():
                continue
            koff = self.R[2] - _np.uint64(STACK_BASE)
            ok = m_fd & (koff <= _np.uint64(STACK_SIZE - vm.key_size))
            bad = m_fd ^ ok
            if bad.any():
                mask = self.drop(mask, bad)
            if ok.any():
                lanes = _np.flatnonzero(ok)
                index = self._gather_bytes(
                    self.stk, lanes, koff[lanes].astype(_np.int64),
                    vm.key_size)
                out[lanes] = _np.where(
                    index < _np.uint64(vm.max_entries),
                    _np.uint64(vm.base)
                    + index * _np.uint64(vm.value_size),
                    _np.uint64(0))
                claimed |= ok
        for hm in self.hash_lookups:
            m_fd = mask & (r1 == _np.uint64(hm.ptr))
            if not m_fd.any():
                continue
            koff = self.R[2] - _np.uint64(STACK_BASE)
            ok = m_fd & (koff <= _np.uint64(STACK_SIZE - hm.key_size))
            bad = m_fd ^ ok
            if bad.any():
                mask = self.drop(mask, bad)
            if ok.any():
                lanes = _np.flatnonzero(ok)
                keys = self._gather_bytes(
                    self.stk, lanes, koff[lanes].astype(_np.int64),
                    hm.key_size)
                probes = hm.lane_probes
                out[lanes] = _np.fromiter(
                    (probes[lane].get(key, 0) for lane, key
                     in zip(lanes.tolist(), keys.tolist())),
                    dtype=_np.uint64, count=lanes.size)
                claimed |= ok
        bad = mask & ~claimed
        if bad.any():
            mask = self.drop(mask, bad)
            if not mask.any():
                return mask
        _np.copyto(self.R[0], out, where=mask)
        self._post_call(mask)
        return mask

    def vec_redirect_map(self, mask):
        """bpf_redirect_map needs only the map *definition* (max_entries),
        so it vectorizes for every map type."""
        if self.strict:
            bad = mask & ~(self.I[1] & self.I[2] & self.I[3])
            if bad.any():
                mask = self.drop(mask, bad)
                if not mask.any():
                    return mask
        r1 = self.R[1]
        out = _np.zeros(self.lanes, dtype=_np.uint64)
        claimed = _np.zeros(self.lanes, dtype=bool)
        for ptr, max_entries in self.redirect_specs:
            m_fd = mask & (r1 == ptr)
            if not m_fd.any():
                continue
            result = _np.where(self.R[2] < max_entries,
                               _np.uint64(XDP_REDIRECT),
                               self.R[3] & _np.uint64(_U32))
            _np.copyto(out, result, where=m_fd)
            claimed |= m_fd
        bad = mask & ~claimed
        if bad.any():
            mask = self.drop(mask, bad)
            if not mask.any():
                return mask
        _np.copyto(self.R[0], out, where=mask)
        self._post_call(mask)
        return mask

    def vec_adjust(self, mask, head: bool):
        """xdp_adjust_head / xdp_adjust_tail: packet extents are suite
        vectors, and the ctx packet-pointer fields re-derive as masked
        scatters of the new extents."""
        if self.strict:
            bad = mask & ~self.I[2]
            if bad.any():
                mask = self.drop(mask, bad)
                if not mask.any():
                    return mask
        delta = self.R[2].astype(_np.int64)
        if head:
            moved = self.starts.astype(_np.int64) + delta
            ok = (moved >= 0) & (moved <= self.ends.astype(_np.int64))
            target = self.starts
        else:
            moved = self.ends.astype(_np.int64) + delta
            ok = (moved >= self.starts.astype(_np.int64)) \
                & (moved <= self.capsv)
            target = self.ends
        okm = mask & ok
        if okm.any():
            _np.copyto(target, moved.astype(_np.uint64), where=okm)
            lanes = _np.flatnonzero(okm)
            for offset, size, is_end in self.ctx_ptr_fields:
                extents = self.ends if is_end else self.starts
                self._scatter_bytes(
                    self.ctxm, lanes,
                    _np.full(lanes.size, offset, dtype=_np.int64), size,
                    extents[lanes])
        result = _np.where(ok, _np.uint64(0), _np.uint64(_U64))
        _np.copyto(self.R[0], result, where=mask)
        self._post_call(mask)
        return mask

    def vec_prandom(self, mask):
        """bpf_get_prandom_u32: per-lane cursor walk over the test's
        random_values tuple (cheap scalar loop, vector write-back)."""
        lanes = _np.flatnonzero(mask).tolist()
        if not lanes:
            return mask
        cursors = self.cursors
        rand_vals = self.rand_vals
        out = []
        for lane in lanes:
            values = rand_vals[lane]
            cursor = cursors[lane]
            out.append(values[cursor % len(values)])
            cursors[lane] = cursor + 1
        self.R[0][lanes] = _np.array(out, dtype=_np.uint64)
        self._post_call(mask)
        return mask

    # ------------------------------------------------------------------ #
    # Scalar helper fallback (fib_lookup, map update/delete)
    # ------------------------------------------------------------------ #
    def call_helper(self, mask, pc: int, body):
        lanes = _np.flatnonzero(mask)
        if not lanes.size:
            return mask
        strict = self.strict
        lane_list = lanes.tolist()
        regs_cols = self.R2[:, lanes].T.tolist()
        init_cols = self.I2[:, lanes].T.tolist()
        starts = self.starts[lanes].tolist()
        ends = self.ends[lanes].tolist()
        keep: List[int] = []
        results: List[int] = []
        for position, lane in enumerate(lane_list):
            view = self.lane_views[lane]
            view.regs = regs_cols[position]
            view.reg_initialized = init_cols[position]
            view.packet_start = starts[position]
            view.packet_end = ends[position]
            view._random_cursor = self.cursors[lane]
            view.packet_dirty = False
            try:
                result = body(view, pc, strict)
            except (BpfFault, _NeedsScalar):
                self.retired[lane] = True
                mask[lane] = False
                continue
            self.cursors[lane] = view._random_cursor
            self.starts[lane] = view.packet_start
            self.ends[lane] = view.packet_end
            if view.packet_dirty:
                self.PD[lane] = True
            keep.append(lane)
            results.append(result & _U64)
        if keep:
            index = _np.array(keep, dtype=_np.int64)
            self.R2[0, index] = _np.array(results, dtype=_np.uint64)
            if strict:
                self.I2[0, index] = True
                self.I2[1:6, index] = False
        return mask

    # ------------------------------------------------------------------ #
    # Output assembly (only for lanes that ran fully in lockstep)
    # ------------------------------------------------------------------ #
    def finish(self) -> None:
        """Convert hot vectors to Python lists once before per-lane output
        construction (numpy scalar reads are ~10x a list index)."""
        self.ret_l = self.ret.tolist()
        self.S_l = self.S.tolist()
        self.E_l = self.E.tolist()
        self.starts_l = self.starts.tolist()
        self.ends_l = self.ends.tolist()
        self.PD_l = self.PD.tolist()
        for vm in self.mem_maps:
            vm.seal()

    def lane_output(self, lane: int, with_costs: bool) -> ProgramOutput:
        start = self.starts_l[lane]
        end = self.ends_l[lane]
        if (not self.PD_l[lane] and start == PACKET_HEADROOM
                and end == self.base_end_l[lane]):
            packet = self.packet_out[lane]
        else:
            packet = self.pkt[lane, start:end].tobytes()
        maps: Dict[int, dict] = {}
        for fd, vm, statics in self.out_plan:
            maps[fd] = statics[lane] if vm is None else vm.lane_snapshot(lane)
        return ProgramOutput(
            self.ret_l[lane], packet, maps, None, self.S_l[lane],
            self.E_l[lane] if with_costs else 0.0)


# --------------------------------------------------------------------------- #
# Vectorized byteswap (END) for the widths the kernel defines
# --------------------------------------------------------------------------- #
def _vbswap(values, width: int):
    if width == 8:
        return values & _np.uint64(0xFF)
    if width == 16:
        low = (values & _np.uint64(0xFFFF)).astype(_np.uint16)
        return low.byteswap().astype(_np.uint64)
    if width == 32:
        low = (values & _np.uint64(0xFFFFFFFF)).astype(_np.uint32)
        return low.byteswap().astype(_np.uint64)
    return values.byteswap()  # width == 64


_BATCH_GLOBALS: dict = {"_vbswap": _vbswap}


# --------------------------------------------------------------------------- #
# Block code generation
# --------------------------------------------------------------------------- #
class _VecEmitter:
    """Accumulates the source of one lockstep block handler."""

    def __init__(self, strict: bool, live_in: frozenset):
        self.strict = strict
        self.live = set(live_in)
        self.lines: List[str] = []
        self.deps: List[tuple] = []
        self.regs_used: set = set()
        self.ini_used: set = set()
        self.truncated = False

    def add(self, line: str, depth: int = 0) -> None:
        self.lines.append("    " + "    " * depth + line)

    def bind(self, name: str, value) -> str:
        self.deps.append((name, value))
        return name

    def reg(self, index: int) -> str:
        self.regs_used.add(index)
        return f"_r{index}"

    def ini(self, index: int) -> str:
        self.ini_used.add(index)
        return f"_i{index}"

    def retire_all(self) -> None:
        """The instruction faults (or is unvectorizable) for every lane."""
        self.add("B.force_retire(_m)")
        self.add("return ()")
        self.truncated = True

    def check_init(self, reg: int) -> None:
        if not self.strict or reg in self.live:
            return
        self.add(f"_bad = _m & ~{self.ini(reg)}")
        self.add("if _bad.any():")
        self.add("_m = B.drop(_m, _bad)", 1)
        self.add("if not _m.any(): return ()", 1)

    def mark_written(self, reg: int) -> None:
        self.live.add(reg)
        if self.strict:
            self.add(f"{self.ini(reg)}[_m] = True")

    def guard_live(self) -> None:
        self.add("if not _m.any(): return ()")

    # ------------------------------------------------------------------ #
    def emit_cost(self, cost) -> None:
        if cost is not None:
            self.add(f"_np.add(_E, {cost!r}, out=_E, where=_m)")

    # ------------------------------------------------------------------ #
    # ALU
    # ------------------------------------------------------------------ #
    def _read64(self, reg: int) -> str:
        return self.reg(reg)

    def _read32(self, reg: int) -> str:
        return f"({self.reg(reg)} & {_U32})"

    def emit_alu(self, insn: Instruction, pc: int) -> bool:
        """Emit one ALU op; returns False when the block must truncate."""
        kind = insn.alu_op
        is64 = insn.is_alu64
        dst = insn.dst
        mask32 = "" if is64 else f" & {_U32}"
        width = 64 if is64 else 32

        if kind == AluOp.END:
            swap = insn.src_operand == SrcOperand.X
            if swap and insn.imm not in (8, 16, 32, 64):
                # Data-dependent OverflowError in byteswap: scalar replay
                # reproduces the exact (possibly propagating) behaviour.
                self.check_init(dst)
                self.retire_all()
                return False
            self.check_init(dst)
            if dst == 10:
                self.retire_all()
                return False
            if swap:
                self.add(f"_t = _vbswap({self.reg(dst)}, {insn.imm})")
            else:
                keep = (1 << insn.imm) - 1
                self.add(f"_t = {self.reg(dst)} & {keep & _U64}")
            self.add(f"_np.copyto({self.reg(dst)}, _t, where=_m)")
            self.mark_written(dst)
            return True

        if kind == AluOp.NEG:
            if dst == 10:
                self.retire_all()
                return False
            self.check_init(dst)
            read = self._read64(dst) if is64 else self._read32(dst)
            self.add(f"_t = (0 - {read}){mask32}")
            self.add(f"_np.copyto({self.reg(dst)}, _t, where=_m)")
            self.mark_written(dst)
            return True

        uses_reg = insn.uses_reg_source
        src = insn.src

        if kind == AluOp.MOV:
            if uses_reg:
                self.check_init(src)
            if dst == 10:
                self.retire_all()
                return False
            if uses_reg:
                self.add(f"_np.copyto({self.reg(dst)}, "
                         f"{self.reg(src)}{mask32}, where=_m)")
            else:
                value = (insn.imm & _U64) & (_U64 if is64 else _U32)
                self.add(f"_np.copyto({self.reg(dst)}, _np.uint64({value}), "
                         f"where=_m)")
            self.mark_written(dst)
            return True

        if dst == 10:
            if uses_reg:
                self.check_init(src)
            self.check_init(dst)
            self.retire_all()
            return False

        # Binary op; the decoded engine checks/reads src before dst.
        if uses_reg:
            self.check_init(src)
            self.add(f"_b = {self._read64(src) if is64 else self._read32(src)}")
            b = "_b"
            b_const = None
        else:
            b_const = (insn.imm & _U64) & (_U64 if is64 else _U32)
            b = f"_np.uint64({b_const})"
        self.check_init(dst)
        self.add(f"_a = {self._read64(dst) if is64 else self._read32(dst)}")

        shift_mask = width - 1
        if kind == AluOp.ADD:
            self.add(f"_t = (_a + {b}){mask32}")
        elif kind == AluOp.SUB:
            self.add(f"_t = (_a - {b}){mask32}")
        elif kind == AluOp.MUL:
            self.add(f"_t = (_a * {b}){mask32}")
        elif kind == AluOp.DIV:
            if b_const is not None:
                if b_const == 0:
                    self.add("_t = _np.zeros_like(_a)")
                else:
                    self.add(f"_t = (_a // _np.uint64({b_const})){mask32}")
            else:
                self.add("_z = _b == 0")
                self.add("_d = _np.where(_z, _np.uint64(1), _b)")
                self.add(f"_t = _np.where(_z, _np.uint64(0), "
                         f"_a // _d){mask32}")
        elif kind == AluOp.MOD:
            if b_const is not None:
                if b_const == 0:
                    self.add("_t = _a")
                else:
                    self.add(f"_t = (_a % _np.uint64({b_const})){mask32}")
            else:
                self.add("_z = _b == 0")
                self.add("_d = _np.where(_z, _np.uint64(1), _b)")
                self.add(f"_t = _np.where(_z, _a, _a % _d){mask32}")
        elif kind == AluOp.OR:
            self.add(f"_t = _a | {b}")
        elif kind == AluOp.AND:
            self.add(f"_t = _a & {b}")
        elif kind == AluOp.XOR:
            self.add(f"_t = _a ^ {b}")
        elif kind in (AluOp.LSH, AluOp.RSH, AluOp.ARSH):
            if b_const is not None:
                amount = f"_np.uint64({b_const & shift_mask})"
            else:
                self.add(f"_s = _b & _np.uint64({shift_mask})")
                amount = "_s"
            if kind == AluOp.LSH:
                self.add(f"_t = (_a << {amount}){mask32}")
            elif kind == AluOp.RSH:
                self.add(f"_t = (_a >> {amount})")
            else:  # ARSH: arithmetic shift on the sign-extended value
                if is64:
                    self.add("_sa = _a.astype(_np.int64)")
                else:
                    self.add(f"_sa = ((_a.astype(_np.int64) ^ {1 << 31}) "
                             f"- {1 << 31})")
                self.add(f"_t = (_sa >> {amount}.astype(_np.int64))"
                         f".astype(_np.uint64)"
                         f"{' & ' + str(_U32) if not is64 else ''}")
        else:  # pragma: no cover - exhaustive over AluOp
            raise ValueError(f"unsupported ALU op {kind!r}")
        self.add(f"_np.copyto({self.reg(dst)}, _t, where=_m)")
        self.mark_written(dst)
        return True

    # ------------------------------------------------------------------ #
    # Conditional jumps
    # ------------------------------------------------------------------ #
    def emit_condition(self, insn: Instruction) -> None:
        """Emit operand loads; leaves the taken mask in ``_c``."""
        jop = insn.jmp_op
        is64 = not insn.is_jump32
        width = 64 if is64 else 32
        dst = insn.dst

        self.check_init(dst)
        self.add(f"_a = {self._read64(dst) if is64 else self._read32(dst)}")
        if insn.uses_reg_source:
            src = insn.src
            self.check_init(src)
            self.add(f"_b = {self._read64(src) if is64 else self._read32(src)}")
            b = "_b"
            b_const = None
        else:
            b_const = (insn.imm & _U64) & (_U64 if is64 else _U32)
            b = f"_np.uint64({b_const})"

        unsigned = {JmpOp.JEQ: "==", JmpOp.JNE: "!=", JmpOp.JGT: ">",
                    JmpOp.JGE: ">=", JmpOp.JLT: "<", JmpOp.JLE: "<="}
        signed = {JmpOp.JSGT: ">", JmpOp.JSGE: ">=",
                  JmpOp.JSLT: "<", JmpOp.JSLE: "<="}
        if jop in unsigned:
            self.add(f"_c = _a {unsigned[jop]} {b}")
        elif jop == JmpOp.JSET:
            self.add(f"_c = (_a & {b}) != 0")
        elif jop in signed:
            if is64:
                self.add("_sa = _a.astype(_np.int64)")
            else:
                self.add(f"_sa = ((_a.astype(_np.int64) ^ {1 << 31}) "
                         f"- {1 << 31})")
            if b_const is not None:
                self.add(f"_c = _sa {signed[jop]} "
                         f"{to_signed(b_const, width)}")
            else:
                if is64:
                    self.add("_sb = _b.astype(_np.int64)")
                else:
                    self.add(f"_sb = ((_b.astype(_np.int64) ^ {1 << 31}) "
                             f"- {1 << 31})")
                self.add(f"_c = _sa {signed[jop]} _sb")
        else:  # pragma: no cover - exhaustive over JmpOp
            raise ValueError(f"unsupported jump op {jop!r}")

    # ------------------------------------------------------------------ #
    # Memory
    # ------------------------------------------------------------------ #
    def emit_load(self, insn: Instruction, pc: int, rebase: tuple) -> bool:
        src, dst, off, width = insn.src, insn.dst, insn.off, insn.access_bytes
        if src == 10:
            k = STACK_SIZE + off
            if not 0 <= k <= STACK_SIZE - width:
                self.retire_all()  # constant-offset fault for every lane
                return False
            if dst == 10:
                self.retire_all()
                return False
            self.add(f"_m = B.stack_load_k(_m, {k}, {width}, {dst})")
            self.guard_live()
            self.live.add(dst)
            return True
        self.check_init(src)
        if dst == 10:
            self.retire_all()  # ReadOnlyRegisterWrite (or an access fault)
            return False
        self.add(f"_ad = {self.reg(src)} + _np.uint64({off & _U64})")
        name = self.bind(f"_rb_{pc}", tuple(sorted(rebase)))
        self.add(f"_m = B.load(_m, _ad, {width}, {dst}, {name})")
        self.guard_live()
        self.live.add(dst)
        return True

    def emit_store(self, insn: Instruction, pc: int) -> bool:
        dst, src, off, width = insn.dst, insn.src, insn.off, insn.access_bytes
        if insn.is_xadd or insn.is_store_reg:
            kind = "xadd" if insn.is_xadd else "reg"
        else:
            kind = "imm"
        if dst == 10:
            k = STACK_SIZE + off
            if not 0 <= k <= STACK_SIZE - width:
                self.retire_all()
                return False
            if kind != "imm":
                self.check_init(src)
                self.regs_used.add(src)
            self.add(f"_m = B.stack_store_k(_m, {k}, {width}, {kind!r}, "
                     f"{src}, {insn.imm})")
            self.guard_live()
            return True
        self.check_init(dst)
        self.add(f"_ad = {self.reg(dst)} + _np.uint64({off & _U64})")
        self.add(f"_m = B.store(_m, _ad, {width}, {kind!r}, {src}, "
                 f"{insn.imm})")
        self.guard_live()
        return True

    # ------------------------------------------------------------------ #
    # Helper calls: vectorized where the semantics allow, scalar rest
    # ------------------------------------------------------------------ #
    def emit_call(self, insn: Instruction, pc: int) -> bool:
        spec = None
        try:
            spec = helper_spec(insn.imm)
        except KeyError:
            pass
        body = _HELPER_BODIES.get(spec.helper_id) if spec is not None \
            else None
        if body is None:
            self.retire_all()  # UnsupportedInstruction for every lane
            return False
        helper_id = spec.helper_id
        if helper_id == HelperId.MAP_LOOKUP_ELEM:
            self.add("_m = B.vec_map_lookup(_m)")
        elif helper_id == HelperId.REDIRECT_MAP:
            self.add("_m = B.vec_redirect_map(_m)")
        elif helper_id == HelperId.XDP_ADJUST_HEAD:
            self.add("_m = B.vec_adjust(_m, True)")
        elif helper_id == HelperId.XDP_ADJUST_TAIL:
            self.add("_m = B.vec_adjust(_m, False)")
        elif helper_id == HelperId.GET_PRANDOM_U32:
            self.add("_m = B.vec_prandom(_m)")
        elif helper_id in _VEC_RESULT_ATTR:
            self.add(f"_m = B.vec_helper_result(_m, "
                     f"B.{_VEC_RESULT_ATTR[helper_id]})")
        elif helper_id in _VEC_RESULT_CONST:
            self.add(f"_m = B.vec_helper_result(_m, "
                     f"_np.uint64({_VEC_RESULT_CONST[helper_id]}))")
        else:  # fib_lookup, map update/delete: per-lane scalar bodies
            name = self.bind(f"_hb_{pc}", body)
            self.add(f"_m = B.call_helper(_m, {pc}, {name})")
        self.guard_live()
        self.live.add(0)
        self.live -= _HELPER_CLOBBER
        return True


def compile_block(instructions, start: int, end: int, strict: bool,
                  costs, rebase_for_width: Callable[[int], tuple],
                  live_in: frozenset) -> Tuple[Callable, int]:
    """Compile one basic block into a lockstep handler.

    Returns ``(handler, block_length)``; the handler signature is
    ``handler(B, mask) -> ((next_pc, mask), ...)`` where an empty tuple
    means every lane exited or retired inside the block.
    """
    emitter = _VecEmitter(strict, live_in)
    # Fall-through default: lanes continue at the next leader.  When the
    # block ends at the last instruction without an exit, the runner finds
    # no handler at ``end`` and retires the lanes — sequential execution
    # faults there, and the scalar replay recovers the exact fault.
    edges = f"(({end}, _m),)"
    for pc in range(start, end):
        insn = instructions[pc]
        if costs is not None:
            emitter.emit_cost(costs[pc])
        # Mirror compile_instruction's classification order exactly.
        if insn.is_nop:
            continue
        if insn.is_exit:
            emitter.check_init(0)
            emitter.add(f"B.add_steps(_m, {end - start})")
            emitter.add(f"B.exit_lanes(_m, {emitter.reg(0)})")
            emitter.add("return ()")
            emitter.truncated = True
            break
        if insn.is_unconditional_jump:
            edges = f"(({pc + 1 + insn.off}, _m),)"
            break
        if insn.is_conditional_jump:
            emitter.emit_condition(insn)
            emitter.add(f"B.add_steps(_m, {end - start})")
            emitter.add("_t = _m & _c")
            emitter.add("_f = _m ^ _t")
            emitter.add(f"return (({pc + 1 + insn.off}, _t), ({pc + 1}, _f))")
            emitter.truncated = True
            break
        if insn.is_call:
            if not emitter.emit_call(insn, pc):
                break
            continue
        if insn.is_lddw:
            if insn.dst == 10:
                emitter.retire_all()
                break
            value = (MAP_PTR_BASE + insn.imm if insn.src == 1
                     else (insn.imm64 or insn.imm)) & _U64
            emitter.add(f"_np.copyto({emitter.reg(insn.dst)}, "
                        f"_np.uint64({value}), where=_m)")
            emitter.mark_written(insn.dst)
            continue
        if insn.is_alu:
            if not emitter.emit_alu(insn, pc):
                break
            continue
        if insn.is_load:
            if not emitter.emit_load(insn, pc,
                                     rebase_for_width(insn.access_bytes)):
                break
            continue
        if insn.is_store or insn.is_xadd:
            if not emitter.emit_store(insn, pc):
                break
            continue
        emitter.retire_all()  # unknown encoding: raises for every lane
        break
    if not emitter.truncated:
        emitter.add(f"B.add_steps(_m, {end - start})")
        emitter.add(f"return {edges}")

    defaults = "".join(f", {name}=_deps[{index}]"
                       for index, (name, _) in enumerate(emitter.deps))
    hoists = ["    _np = B.np", "    _E = B.E"]
    hoists += [f"    _r{index} = B.R[{index}]"
               for index in sorted(emitter.regs_used)]
    hoists += [f"    _i{index} = B.I[{index}]"
               for index in sorted(emitter.ini_used)]
    source = "\n".join([f"def _block(B, _m{defaults}):"] + hoists
                       + emitter.lines)
    namespace = {"_deps": [value for _, value in emitter.deps]}
    scope = dict(_BATCH_GLOBALS)
    exec(compile(source, f"<lockstep block {start}:{end}>", "exec"),
         scope, namespace)
    return namespace["_block"], end - start


# --------------------------------------------------------------------------- #
# Lockstep programs
# --------------------------------------------------------------------------- #
@dataclasses.dataclass
class BatchProgram:
    """A program compiled to lockstep block handlers, keyed by leader pc."""

    handlers: Dict[int, Tuple[Callable, int]]
    num_insns: int


# --------------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------------- #
class BatchedEngine(FusedEngine):
    """The lockstep tier: SoA batch replay on top of the fused engine.

    ``run`` is the inherited fused scalar path; :meth:`run_batch` switches
    to lockstep execution for batches of at least ``batch_min_lanes`` tests
    (and silently stays on the fused path for small batches, programs the
    CFG builder rejects, or hosts without numpy).  Outputs — including the
    truncated prefix produced by the ``until`` early exit — are bit-identical
    to sequential execution: lanes the vector tier cannot finish exactly
    are re-run through the scalar path one by one.
    """

    kind = "batch"

    def __init__(self, step_limit: int = DEFAULT_STEP_LIMIT,
                 opcode_cost_fn=None,
                 strict_uninitialized: bool = True,
                 decode_cache_size: int = 512,
                 promote_after: Optional[int] = None,
                 batch_min_lanes: int = DEFAULT_MIN_LANES):
        super().__init__(step_limit=step_limit,
                         opcode_cost_fn=opcode_cost_fn,
                         strict_uninitialized=strict_uninitialized,
                         decode_cache_size=decode_cache_size,
                         promote_after=promote_after)
        self.batch_min_lanes = batch_min_lanes
        self._batch_programs: "OrderedDict[tuple, Optional[BatchProgram]]" = \
            OrderedDict()
        self._batch_blocks: Dict[tuple, Tuple[Callable, int]] = {}
        self._suites: "OrderedDict[tuple, BatchSuite]" = OrderedDict()
        self.lockstep_batches = 0
        self.lockstep_lanes = 0
        self.lanes_retired = 0
        self.vector_bailouts = 0

    def __getstate__(self):
        state = super().__getstate__()
        state["batch_min_lanes"] = self.batch_min_lanes
        return state

    # ------------------------------------------------------------------ #
    def run_batch(self, program: BpfProgram, tests: Sequence[ProgramInput],
                  until: Optional[Callable[[int, ProgramOutput], bool]] = None,
                  ) -> List[ProgramOutput]:
        if _np is None or len(tests) < self.batch_min_lanes:
            return super().run_batch(program, tests, until=until)
        compiled = self._lockstep_decode(program)
        if compiled is None:  # CfgError: the fused tier handles it whole
            return super().run_batch(program, tests, until=until)
        suite = self._suite_for(program, tests)
        suite.rewind()
        self.lockstep_batches += 1
        self.lockstep_lanes += suite.lanes
        with _np.errstate(all="ignore"):
            self._run_lockstep(compiled, suite)
        return self._assemble(program, tests, suite, until)

    # ------------------------------------------------------------------ #
    # Lockstep compilation (separate caches from the fused tier)
    # ------------------------------------------------------------------ #
    def _lockstep_decode(self, program: BpfProgram) -> Optional[BatchProgram]:
        key = program.content_key()
        cached = self._batch_programs.get(key)
        if cached is not None or key in self._batch_programs:
            self._batch_programs.move_to_end(key)
            return cached
        try:
            cfg = build_cfg(program.instructions)
        except CfgError:
            compiled: Optional[BatchProgram] = None
        else:
            compiled = self._compile_lockstep(program, cfg)
        self._batch_programs[key] = compiled
        if len(self._batch_programs) > self._decoder.cache_size:
            self._batch_programs.popitem(last=False)
        return compiled

    def _compile_lockstep(self, program: BpfProgram, cfg) -> BatchProgram:
        instructions = cfg.instructions
        cost_fn = self.opcode_cost_fn
        costs = ([cost_fn(insn) for insn in instructions]
                 if cost_fn is not None else None)
        info = self._decoder._info_for(program.hook)

        def rebase_for_width(width: int) -> tuple:
            return tuple(sorted(info.offsets_for_width(width)))

        live_sets = _must_init_sets(cfg)
        handlers: Dict[int, Tuple[Callable, int]] = {}
        memo = self._batch_blocks
        for block in cfg.blocks:
            live_in = live_sets[block.start]
            block_key = (
                block.start, info.key, self.strict_uninitialized, live_in,
                tuple(costs[block.start:block.end]) if costs is not None
                else None,
                tuple((insn.opcode, insn.dst, insn.src, insn.off,
                       insn.imm, insn.imm64)
                      for insn in instructions[block.start:block.end]))
            entry = memo.get(block_key)
            if entry is None:
                entry = compile_block(
                    instructions, block.start, block.end,
                    self.strict_uninitialized, costs, rebase_for_width,
                    live_in)
                if len(memo) < _MAX_BLOCK_MEMO:
                    memo[block_key] = entry
            handlers[block.start] = entry
        return BatchProgram(handlers=handlers, num_insns=len(instructions))

    # ------------------------------------------------------------------ #
    # Suites
    # ------------------------------------------------------------------ #
    def _suite_for(self, program: BpfProgram,
                   tests: Sequence[ProgramInput]) -> BatchSuite:
        machine = self._machine_for(program)
        images = machine.reset_images(tests)
        key = (id(machine), tuple(id(image) for image in images))
        suite = self._suites.get(key)
        if suite is not None:
            self._suites.move_to_end(key)
            return suite
        suite = BatchSuite(program.hook, program.maps, images,
                           self.strict_uninitialized, self.step_limit)
        suite.np = _np
        self._suites[key] = suite
        if len(self._suites) > _MAX_SUITES:
            self._suites.popitem(last=False)
        return suite

    # ------------------------------------------------------------------ #
    # The warp-style runner
    # ------------------------------------------------------------------ #
    def _run_lockstep(self, compiled: BatchProgram, suite: BatchSuite) -> None:
        limit = self.step_limit
        handlers = compiled.handlers
        steps = suite.S
        pending: Dict[int, object] = {0: suite.mask_all()}
        while pending:
            pc = min(pending)
            mask = pending.pop(pc)
            if not mask.any():
                continue
            entry = handlers.get(pc)
            if entry is None:
                # Fallthrough past the last instruction (or a pc the CFG
                # did not mark as a leader): sequential execution faults
                # here, so the scalar replay recovers the exact behaviour.
                suite.force_retire(mask)
                continue
            handler, length = entry
            near = mask & (steps > limit - length)
            if near.any():
                # Too close to the step budget for a whole-block step
                # account; these lanes replay scalar with the legacy
                # per-instruction limit check.
                suite.force_retire(near)
                mask = mask & ~near
                if not mask.any():
                    continue
            try:
                edges = handler(suite, mask)
            except Exception:
                # Defensive: a vectorization gap must never change
                # behaviour — the affected lanes fall back to scalar.
                self.vector_bailouts += 1
                suite.force_retire(mask)
                continue
            for next_pc, next_mask in edges:
                if not next_mask.any():
                    continue
                merged = pending.get(next_pc)
                pending[next_pc] = next_mask if merged is None \
                    else merged | next_mask

    # ------------------------------------------------------------------ #
    # Output assembly: sequential truncation contracts, scalar retirement
    # ------------------------------------------------------------------ #
    def _assemble(self, program, tests, suite, until) -> List[ProgramOutput]:
        outputs: List[ProgramOutput] = []
        with_costs = self.opcode_cost_fn is not None
        suite.finish()
        retired = suite.retired.tolist()
        for index in range(suite.lanes):
            if retired[index]:
                # Scalar re-execution through the inherited fused path:
                # per-lane fault text, steps and estimated_ns are exact by
                # construction (and non-BpfFault exceptions propagate at
                # the same test index as sequential execution).
                self.lanes_retired += 1
                output = self.run(program, tests[index])
            else:
                self.runs += 1
                output = suite.lane_output(index, with_costs)
            outputs.append(output)
            if until is not None and until(index, output):
                break
        return outputs

    # ------------------------------------------------------------------ #
    def stats(self) -> dict:
        summary = super().stats()
        summary.update({
            "lockstep_batches": self.lockstep_batches,
            "lockstep_lanes": self.lockstep_lanes,
            "lanes_retired": self.lanes_retired,
            "vector_bailouts": self.vector_bailouts,
        })
        return summary
