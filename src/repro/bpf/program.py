"""The BPF program container.

A :class:`BpfProgram` bundles an instruction sequence with everything a
compiler or verifier needs to reason about it: the attachment hook (input /
output conventions) and the map environment (which maps the ``LD_MAP_FD``
pseudo instructions refer to).
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Iterable, List, Optional, Sequence

from .hooks import Hook, HookType, get_hook
from .instruction import Instruction
from .maps import MapEnvironment
from .opcodes import MAX_INSNS, NUM_REGISTERS

__all__ = ["BpfProgram", "ProgramValidationError"]


class ProgramValidationError(ValueError):
    """Raised when a program is structurally malformed."""


@dataclasses.dataclass
class BpfProgram:
    """A BPF program: instructions + hook + maps.

    The instruction list is treated as immutable by convention; use
    :meth:`with_instructions` to derive modified programs (the synthesizer
    creates thousands of candidates per second, so copies stay cheap and
    the original is never mutated in place).
    """

    instructions: List[Instruction]
    hook: Hook
    maps: MapEnvironment = dataclasses.field(default_factory=MapEnvironment)
    name: str = "bpf_prog"

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def create(cls, instructions: Sequence[Instruction],
               hook_type: HookType = HookType.XDP,
               maps: Optional[MapEnvironment] = None,
               name: str = "bpf_prog") -> "BpfProgram":
        return cls(instructions=list(instructions), hook=get_hook(hook_type),
                   maps=maps or MapEnvironment(), name=name)

    def with_instructions(self, instructions: Sequence[Instruction],
                          name: Optional[str] = None) -> "BpfProgram":
        """Return a sibling program with a different instruction sequence."""
        return BpfProgram(instructions=list(instructions), hook=self.hook,
                          maps=self.maps, name=name or self.name)

    # ------------------------------------------------------------------ #
    # Basic measurements
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def num_instructions(self) -> int:
        """Total instruction count including NOPs."""
        return len(self.instructions)

    @property
    def num_real_instructions(self) -> int:
        """Instruction count excluding NOPs (the paper's size metric).

        Cached on the instance, like :meth:`content_key`: the search's
        performance cost reads it for every proposal and for the source.
        """
        count = self.__dict__.get("_num_real_instructions")
        if count is None:
            count = sum(1 for insn in self.instructions if not insn.is_nop)
            self.__dict__["_num_real_instructions"] = count
        return count

    # ------------------------------------------------------------------ #
    # Structural validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise :class:`ProgramValidationError` for malformed programs.

        This checks structural well-formedness only (register numbers, jump
        targets inside the program, terminating EXIT); semantic safety is the
        job of :mod:`repro.safety` and :mod:`repro.verifier`.
        """
        insns = self.instructions
        if not insns:
            raise ProgramValidationError("empty program")
        if len(insns) > MAX_INSNS:
            raise ProgramValidationError(
                f"program too long: {len(insns)} > {MAX_INSNS}")
        has_exit = False
        for index, insn in enumerate(insns):
            if not (0 <= insn.dst < NUM_REGISTERS):
                raise ProgramValidationError(
                    f"insn {index}: bad dst register {insn.dst}")
            if not (0 <= insn.src < NUM_REGISTERS):
                raise ProgramValidationError(
                    f"insn {index}: bad src register {insn.src}")
            if insn.is_exit:
                has_exit = True
            if insn.is_jump and not insn.is_call and not insn.is_exit:
                target = index + 1 + insn.off
                if not (0 <= target <= len(insns)):
                    raise ProgramValidationError(
                        f"insn {index}: jump target {target} out of range")
            if insn.is_call:
                from .helpers import HELPERS

                if insn.imm not in HELPERS:
                    raise ProgramValidationError(
                        f"insn {index}: unknown helper id {insn.imm}")
            if insn.is_lddw and insn.src == 1:
                if insn.imm not in self.maps:
                    raise ProgramValidationError(
                        f"insn {index}: LD_MAP_FD references unknown map fd "
                        f"{insn.imm}")
        if not has_exit:
            raise ProgramValidationError("program has no exit instruction")

    def is_valid(self) -> bool:
        try:
            self.validate()
        except ProgramValidationError:
            return False
        return True

    # ------------------------------------------------------------------ #
    # Presentation
    # ------------------------------------------------------------------ #
    def to_text(self) -> str:
        """Disassemble the program into its textual form."""
        from .asm import disassemble

        return disassemble(self.instructions)

    def __str__(self) -> str:  # pragma: no cover - convenience
        return f"{self.name} ({self.hook.name}, {len(self)} insns)\n" + self.to_text()

    # ------------------------------------------------------------------ #
    # Comparison helpers used by caches and tests
    # ------------------------------------------------------------------ #
    def structural_key(self) -> tuple:
        """A hashable key capturing the instruction sequence."""
        return tuple(
            (insn.opcode, insn.dst, insn.src, insn.off, insn.imm, insn.imm64)
            for insn in self.instructions)

    def same_instructions(self, other: "BpfProgram") -> bool:
        return self.structural_key() == other.structural_key()

    def content_key(self) -> tuple:
        """Exact hashable key over everything execution depends on.

        Covers the instruction sequence, the hook (context layout) and the
        map definitions — two programs with equal content keys execute
        identically on every test input, which is what makes this safe as a
        decode-cache key.  Cached on the instance: instructions are immutable
        by convention (:meth:`with_instructions` derives new programs), so
        repeated cache probes on the same object cost one dict lookup.
        """
        key = self.__dict__.get("_content_key")
        if key is None:
            key = (
                self.structural_key(),
                self.hook.name,
                tuple((d.fd, d.map_type.value, d.key_size, d.value_size,
                       d.max_entries) for d in self.maps.definitions()),
            )
            self.__dict__["_content_key"] = key
        return key

    def content_hash(self) -> int:
        """Stable 64-bit digest of :meth:`content_key` (logs / diagnostics).

        Collision-tolerant uses only: caches that must never confuse two
        programs key on the full :meth:`content_key` tuple instead.
        """
        value = self.__dict__.get("_content_hash")
        if value is None:
            digest = hashlib.blake2b(repr(self.content_key()).encode("utf-8"),
                                     digest_size=8)
            value = int.from_bytes(digest.digest(), "big")
            self.__dict__["_content_hash"] = value
        return value


def iter_real_instructions(instructions: Iterable[Instruction]):
    """Yield (index, instruction) pairs for non-NOP instructions."""
    for index, insn in enumerate(instructions):
        if not insn.is_nop:
            yield index, insn
