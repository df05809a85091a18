"""Reference trace facts, read back from a trace's recorded columns rather
than taken during the run: each JUMPI, SSTORE, SLOAD and EXTCODESIZE step's
operands are the top items of the stack snapshot recorded before it, and a
genuine INVALID can only be the last step of a trace that did not fault.

A step that faulted on stack underflow holds too few items and yields
nothing, except that it still counts as an SSTORE step.
"""


def gather_facts(trace) -> dict:
    jumpis, reads, writes, targets = [], set(), set(), set()
    sstores = 0
    for op, pc, stack in zip(trace.ops, trace.pcs, trace.stacks):
        if op == "JUMPI" and len(stack) >= 2:
            jumpis.append((pc, stack[-1], stack[-2] != 0))
        elif op == "SSTORE":
            sstores += 1
            if len(stack) >= 2:
                writes.add(stack[-1])
        elif op == "SLOAD" and stack:
            reads.add(stack[-1])
        elif op == "EXTCODESIZE" and stack:
            targets.add(stack[-1])
    genuine = bool(trace.ops) and trace.ops[-1] == "INVALID" and not trace.faulted
    return {
        "executed": frozenset(trace.pcs),
        "jumpis": tuple(jumpis),
        "sstores": sstores,
        "read_keys": frozenset(reads),
        "write_keys": frozenset(writes),
        "extcode_targets": frozenset(targets),
        "invalid_pc": trace.pcs[-1] if genuine else None,
    }
