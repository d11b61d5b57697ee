"""Shared program definitions for the golden verdict regression corpus.

The golden corpus pins the analyzer verdict (safe/unsafe + violation
kinds) for every :mod:`repro.corpus` benchmark and for a set of
hand-written unsafe variants, one per violation class.  The safety and
kernel checkers must reproduce the pinned verdicts exactly, so verdict
drift — a transfer-function change that silently accepts more or fewer
programs — fails loudly.
"""

from repro.bpf import BpfProgram, HookType, assemble, get_hook
from repro.bpf.maps import MapDef, MapEnvironment, MapType

__all__ = ["unsafe_variants", "GOLDEN_PATH"]

import os

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_verdicts.json")


def _prog(text, maps=None, hook=HookType.XDP, name="variant"):
    return BpfProgram(instructions=assemble(text), hook=get_hook(hook),
                      maps=maps or MapEnvironment(), name=name)


def _maps():
    return MapEnvironment([MapDef(fd=1, name="m", map_type=MapType.ARRAY,
                                  key_size=4, value_size=8, max_entries=4)])


def unsafe_variants():
    """Named hand-written variants, one per §6 violation class."""
    variants = {
        "loop": _prog("mov64 r0, 0\nadd64 r0, 1\njlt r0, 5, -2\nexit"),
        "unreachable_code": _prog("mov64 r0, 0\nja +1\nmov64 r0, 9\nexit"),
        "missing_exit": _prog("mov64 r0, 0\nmov64 r1, 1"),
        "unchecked_packet_access": _prog(
            "ldxw r2, [r1+0]\nldxb r0, [r2+0]\nexit"),
        "packet_access_past_bound": _prog(
            "mov64 r0, 2\n"
            "ldxw r2, [r1+0]\nldxw r3, [r1+4]\n"
            "mov64 r4, r2\nadd64 r4, 14\njgt r4, r3, +2\n"
            "ldxb r5, [r2+20]\nmov64 r0, 1\nexit"),
        "stack_out_of_bounds": _prog(
            "mov64 r2, 1\nstxdw [r10+8], r2\nmov64 r0, 0\nexit"),
        "stack_read_before_write": _prog("ldxdw r0, [r10-8]\nexit"),
        "misaligned_stack_access": _prog(
            "mov64 r2, 1\nstxdw [r10-12], r2\nmov64 r0, 0\nexit"),
        "uninitialized_register": _prog("mov64 r0, r7\nexit"),
        "clobbered_after_call": _prog(
            "mov64 r3, 1\ncall bpf_get_smp_processor_id\n"
            "mov64 r0, r3\nexit"),
        "unchecked_map_lookup": _prog(
            "mov64 r6, 0\nstxw [r10-4], r6\nmov64 r2, r10\nadd64 r2, -4\n"
            "ld_map_fd r1, 1\ncall bpf_map_lookup_elem\n"
            "ldxdw r0, [r0+0]\nexit", maps=_maps()),
        "map_value_out_of_bounds": _prog(
            "mov64 r6, 0\nstxw [r10-4], r6\nmov64 r2, r10\nadd64 r2, -4\n"
            "ld_map_fd r1, 1\ncall bpf_map_lookup_elem\n"
            "jeq r0, 0, +2\nldxdw r0, [r0+8]\nexit\nmov64 r0, 0\nexit",
            maps=_maps()),
        "ctx_store": _prog(
            "mov64 r2, 1\nstxw [r1+12], r2\nmov64 r0, 0\nexit"),
        "pointer_arithmetic": _prog(
            "mov64 r2, r1\nmul64 r2, 4\nmov64 r0, 0\nexit"),
        "pointer_leak": _prog("mov64 r0, r10\nexit"),
        "write_to_r10": _prog("mov64 r10, 4\nmov64 r0, 0\nexit"),
        "bad_return_value": _prog("mov64 r0, 77\nexit"),
        "bad_jump_target": _prog("mov64 r0, 0\nja +9\nexit"),
        # A safe control: the canonical bounds-checked parser.
        "safe_parser": _prog(
            "mov64 r0, 2\n"
            "ldxw r2, [r1+0]\nldxw r3, [r1+4]\n"
            "mov64 r4, r2\nadd64 r4, 14\njgt r4, r3, +2\n"
            "ldxb r5, [r2+12]\nmov64 r0, 1\nexit"),
        "safe_checked_lookup": _prog(
            "mov64 r6, 0\nstxw [r10-4], r6\nmov64 r2, r10\nadd64 r2, -4\n"
            "ld_map_fd r1, 1\ncall bpf_map_lookup_elem\n"
            "jeq r0, 0, +2\nldxdw r0, [r0+0]\nexit\nmov64 r0, 0\nexit",
            maps=_maps()),
    }
    for name, program in variants.items():
        program.name = name
    return variants
