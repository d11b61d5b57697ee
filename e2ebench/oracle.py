"""Independent check of every optimized program the benchmark receives.

A program passes when

1. a fresh :class:`~repro.verifier.KernelChecker` accepts it, and
2. it matches its source's observables (return value, packet, maps, fault
   flag) on the legacy :class:`~repro.interpreter.Interpreter` over inputs
   made here from a benchmark-owned seed.

Neither the search engines nor the search's test suite take part, so a bug
that makes the search report a wrong program is caught here rather than
trusted.  The inputs are drawn from this module's own generator, with a
different shape from the search's: raw and header-shaped packets, bit-flipped
variants, and map entries whose keys are copied out of the packet so that
lookups hit as well as miss.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Dict, List, Optional

__all__ = ["ORACLE_SEED", "ORACLE_INPUTS", "oracle_inputs", "check_program"]

#: Seed of the oracle's inputs; fixed, and unrelated to any search seed.
ORACLE_SEED = 0x0E2E
#: Inputs per source program.
ORACLE_INPUTS = 96

_ARRAY_TYPES = ("array", "percpu_array", "devmap", "cpumap")


def _header_packet(rng: random.Random) -> bytearray:
    """Ethernet + IPv4/IPv6 + TCP/UDP/ICMP with random fields."""
    ipv6 = rng.random() < 0.3
    packet = bytearray(rng.randbytes(12))
    packet += (b"\x86\xdd" if ipv6 else b"\x08\x00")
    proto = rng.choice((6, 17, 1, rng.randrange(256)))
    if ipv6:
        packet += bytes([0x60, 0, 0, 0, 0, 40, proto, 64])
        packet += rng.randbytes(32)
    else:
        packet += bytes([0x45, 0, 0, 40, 0, 0, 0, 0, 64, proto, 0, 0])
        packet += rng.randbytes(8)
    packet += rng.randbytes(20)
    packet += rng.randbytes(rng.choice((0, 6, 26, 90)))
    return packet


def _packet(rng: random.Random) -> bytes:
    style = rng.random()
    if style < 0.55:
        packet = _header_packet(rng)
    elif style < 0.8:
        packet = bytearray(rng.randbytes(rng.randrange(0, 200)))
    else:
        packet = bytearray(rng.choice((0x00, 0xFF)) for _ in
                           range(rng.choice((13, 14, 33, 34, 54, 64))))
    for _ in range(rng.randrange(3)):  # bit flips
        if packet:
            packet[rng.randrange(len(packet))] ^= 1 << rng.randrange(8)
    return bytes(packet)


def oracle_inputs(program, count: int = ORACLE_INPUTS,
                  seed: int = ORACLE_SEED) -> List:
    """``count`` inputs for ``program``'s hook and maps, from ``seed``."""
    from repro.bpf.hooks import CtxFieldKind
    from repro.interpreter import ProgramInput

    rng = random.Random(f"{seed}:{program.name}")
    hook = program.hook
    inputs = []
    for _ in range(count):
        packet = _packet(rng) if hook.has_packet else b""
        ctx = {field.name: rng.choice((0, 1, rng.randrange(1 << 16),
                                       rng.randrange(1 << 32)))
               & ((1 << (8 * field.size)) - 1)
               for field in hook.fields if field.kind == CtxFieldKind.SCALAR}
        maps: Dict[int, Dict[bytes, bytes]] = {}
        for definition in program.maps.definitions():
            entries = {}
            for _ in range(rng.randrange(0, 6)):
                if definition.map_type.value in _ARRAY_TYPES:
                    key = rng.randrange(definition.max_entries).to_bytes(
                        definition.key_size, "little")
                elif packet and len(packet) >= definition.key_size \
                        and rng.random() < 0.5:
                    offset = rng.randrange(len(packet) - definition.key_size
                                           + 1)
                    key = packet[offset:offset + definition.key_size]
                else:
                    key = rng.randbytes(definition.key_size)
                entries[key] = rng.randbytes(definition.value_size)
            if entries:
                maps[definition.fd] = entries
        inputs.append(ProgramInput(
            packet=packet, ctx=ctx, map_contents=maps,
            random_values=[rng.randrange(1 << 32) for _ in range(3)],
            time_ns=rng.randrange(1 << 40), cpu_id=rng.randrange(4)))
    return inputs


def check_program(source, optimized, inputs: Optional[List] = None
                  ) -> Optional[str]:
    """``None`` if ``optimized`` passes both checks, else the reason."""
    from repro.interpreter import Interpreter
    from repro.verifier import KernelChecker

    verdict = KernelChecker().load(optimized)
    if not verdict.accepted:
        return f"kernel checker rejected: {verdict.reason}"
    interpreter = Interpreter()
    for index, test in enumerate(inputs if inputs is not None
                                 else oracle_inputs(source)):
        expected = interpreter.run(source, test).observable()
        # Each run gets its own copy: nothing may leak between the two.
        actual = interpreter.run(optimized,
                                 dataclasses.replace(test)).observable()
        if expected != actual:
            return f"differs from source on oracle input {index}"
    return None
