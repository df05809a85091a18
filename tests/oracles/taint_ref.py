"""Reference taint walker: the dense per-step walk as first written.

Every effect branch pops its own operands off the shadow stack and pushes
its own result, and each copy into memory has its own loop.  It shares only
the report dataclasses, ``expr`` and the opcode table with the shipped
walker, so a differential test can require both to produce equal
``TaintReport``s for the same traces.
"""

from evmfuzz.analysis.expr import apply, const, opaque, var
from evmfuzz.analysis.taint import (
    CallAnnotation,
    OverflowEvent,
    PathConstraint,
    StoreAnnotation,
    TaintReport,
)
from evmfuzz.evm.opcodes import CALL_OPS, MASK, TABLE, WORD_OPS

OUT_REGION_TAINT_BYTES = 4096

ENV_SOURCES = {
    "CALLVALUE": "callvalue", "CALLER": "caller", "ORIGIN": "origin",
    "TIMESTAMP": "timestamp", "NUMBER": "blocknumber",
    "CALLDATASIZE": "calldatasize", "GAS": "gas", "BALANCE": "balance",
    "BLOCKHASH": "blockhash",
}

CALL_OPERANDS = {
    "CALL": (2, 3), "CALLCODE": (2, 3), "DELEGATECALL": (2, 0),
    "STATICCALL": (2, 0), "CREATE": (0, 1), "SELFDESTRUCT": (1, 0),
}

SPECIAL = frozenset(
    [*ENV_SOURCES, *CALL_OPERANDS, "CALLDATALOAD", "CALLDATACOPY", "CODECOPY",
     "RETURNDATACOPY", "RETURNDATASIZE", "EXTCODESIZE", "SLOAD", "SSTORE",
     "MLOAD", "MSTORE", "MSTORE8", "SHA3"]
)

EFFECTS = {name: (pops, pushes) for name, pops, pushes in TABLE.values()}


def wraps(op, concretes):
    a, b = concretes[0], concretes[1]
    if op == "add":
        return a + b > MASK
    if op == "sub":
        return a < b
    return a * b > MASK


class ReferenceTracker:
    """Shadow storage shared by all inputs of one individual."""

    def __init__(self):
        self.storage = {}
        self.realignments = 0

    def run_input(self, input_index, inp, trace):
        report = TaintReport()
        storage_before = dict(self.storage)
        walker = ReferenceWalker(self, input_index, trace, report)
        walker.walk()
        self.realignments += walker.realignments
        if not trace.state_delta_applied:
            self.storage = storage_before
        return report


def taint_individual(inputs, traces):
    tracker = ReferenceTracker()
    return [
        tracker.run_input(index, inp, trace)
        for index, (inp, trace) in enumerate(zip(inputs, traces))
    ]


class ReferenceWalker:
    def __init__(self, tracker, input_index, trace, report):
        self.tracker = tracker
        self.i = input_index
        self.trace = trace
        self.report = report
        self.shadow = []
        self.memory = {}  # offset -> (size, term)
        self.control_kinds = frozenset()
        self.last_callee = None
        self.last_return = b""
        self.realignments = 0
        self.calldata = trace.calldata
        self.events = {event.record_index: event for event in trace.calls}

    def result_of(self, index):
        stacks = self.trace.stacks
        if index + 1 < len(stacks) and stacks[index + 1]:
            return stacks[index + 1][-1]
        return 0

    def mark(self, name, concrete):
        self.report.var_values[name] = concrete & MASK
        return var(name)

    def mem_clear(self, offset, size):
        if size <= 0:
            return
        end = offset + size
        dead = [o for o, (sz, _) in self.memory.items() if o < end and offset < o + sz]
        for o in dead:
            del self.memory[o]

    def mem_write(self, offset, size, term):
        self.mem_clear(offset, size)
        if term is not None and size > 0:
            self.memory[offset] = (size, term)

    def mem_terms(self, offset, size):
        if size <= 0:
            return []
        end = offset + size
        return [
            term
            for o, (sz, term) in sorted(self.memory.items())
            if o < end and offset < o + sz
        ]

    def mem_read_word(self, offset, concrete):
        entry = self.memory.get(offset)
        if entry is not None and entry[0] == 32:
            others = self.mem_terms(offset, 32)
            if len(others) == 1:
                return entry[1]
        terms = self.mem_terms(offset, 32)
        if not terms:
            return None
        return opaque("mix", concrete, *terms)

    def taint_returndata(self, to, ret, out_off, out_sz):
        if out_sz <= 0:
            return
        self.mem_clear(out_off, out_sz)
        for chunk_start in range(0, min(out_sz, max(len(ret), OUT_REGION_TAINT_BYTES)), 32):
            chunk = (ret[chunk_start:chunk_start + 32]).ljust(32, b"\x00")
            size = min(32, out_sz - chunk_start)
            name = f"callret_{self.i}_{to:x}_w{chunk_start // 32}"
            term = self.mark(name, int.from_bytes(chunk, "big"))
            self.memory[out_off + chunk_start] = (size, term)

    def calldata_word_term(self, offset, concrete):
        if offset == 0:
            return None
        if offset >= 4 and (offset - 4) % 32 == 0:
            return self.mark(f"arg_{(offset - 4) // 32}_{self.i}", concrete)
        return self.mark(f"calldata_{offset}_{self.i}", concrete)

    def walk(self):
        trace = self.trace
        ops, pcs = trace.ops, trace.pcs
        end = len(ops)
        if trace.faulted:
            end -= 1
            if end and pcs[end - 1] == pcs[end]:
                end -= 1
        elif trace.terminal == "TIMEOUT" and end and ops[end - 1] in CALL_OPERANDS \
                and end - 1 not in self.events:
            end -= 1
        for index in range(end):
            op, stack = ops[index], trace.stacks[index]
            if len(self.shadow) != len(stack):
                self.realignments += 1
                self.shadow = [None] * len(stack)
            self.step(index, op, stack)

    def step(self, index, op, stack):
        i = self.i
        shadow = self.shadow
        pops, pushes = EFFECTS[op]
        if op.startswith("PUSH"):
            shadow.append(None)
        elif op.startswith("DUP"):
            shadow.append(shadow[-pops])
        elif op.startswith("SWAP"):
            shadow[-1], shadow[-pops] = shadow[-pops], shadow[-1]
        elif op in WORD_OPS:
            name = op.lower()
            terms = [shadow.pop() for _ in range(pops)]  # top of stack first
            if all(t is None for t in terms):
                shadow.append(None)
                return
            concretes = tuple(stack[-1 - k] for k in range(pops))
            result = apply(
                name, *(const(c) if t is None else t for t, c in zip(terms, concretes))
            )
            shadow.append(result)
            if name in ("add", "sub", "mul") and wraps(name, concretes):
                self.report.overflows.append(
                    OverflowEvent(self.trace.pcs[index], name, result, concretes)
                )
        elif op == "JUMPI":
            shadow.pop()
            cond_term = shadow.pop()
            if cond_term is not None:
                self.report.constraints.append(
                    PathConstraint(
                        pc=self.trace.pcs[index],
                        cond=cond_term,
                        taken=stack[-2] != 0,
                    )
                )
                self.control_kinds |= cond_term.kinds
        elif op not in SPECIAL:
            for _ in range(pops):
                shadow.pop()
            if pushes:
                shadow.append(None)
        elif op in ENV_SOURCES:
            for _ in range(pops):
                shadow.pop()
            shadow.append(self.mark(f"{ENV_SOURCES[op]}_{i}", self.result_of(index)))
        elif op == "CALLDATALOAD":
            shadow.pop()
            shadow.append(self.calldata_word_term(stack[-1], self.result_of(index)))
        elif op == "CALLDATACOPY":
            del shadow[-3:]
            dest, offset, size = stack[-1], stack[-2], stack[-3]
            self.mem_clear(dest, size)
            for chunk_start in range(0, min(size, len(self.calldata) - offset), 32):
                term = self.calldata_word_term(
                    offset + chunk_start,
                    int.from_bytes(
                        self.calldata[offset + chunk_start:offset + chunk_start + 32]
                        .ljust(32, b"\x00"),
                        "big",
                    ),
                )
                if term is not None:
                    self.memory[dest + chunk_start] = (min(32, size - chunk_start), term)
        elif op in ("CODECOPY", "RETURNDATACOPY"):
            del shadow[-3:]
            dest, offset, size = stack[-1], stack[-2], stack[-3]
            self.mem_clear(dest, size)
            if op == "RETURNDATACOPY" and self.last_callee is not None:
                ret = self.last_return
                for chunk_start in range(0, min(size, len(ret) - offset), 32):
                    src = offset + chunk_start
                    chunk = ret[src:src + 32].ljust(32, b"\x00")
                    name = f"callret_{i}_{self.last_callee:x}_w{src // 32}"
                    self.memory[dest + chunk_start] = (
                        min(32, size - chunk_start),
                        self.mark(name, int.from_bytes(chunk, "big")),
                    )
        elif op == "RETURNDATASIZE":
            if self.last_callee is not None:
                shadow.append(
                    self.mark(f"retsize_{i}_{self.last_callee:x}", self.result_of(index))
                )
            else:
                shadow.append(None)
        elif op == "EXTCODESIZE":
            shadow.pop()
            shadow.append(self.mark(f"extcode_{i}_{stack[-1]:x}", self.result_of(index)))
        elif op == "SLOAD":
            shadow.pop()
            key = stack[-1]
            stored = self.tracker.storage.get(key)
            if stored is None:
                stored = self.mark(f"storage_{key:x}", self.result_of(index))
            shadow.append(stored)
        elif op == "SSTORE":
            shadow.pop()
            value_term = shadow.pop()
            key = stack[-1]
            if value_term is None:
                self.tracker.storage.pop(key, None)
            else:
                self.tracker.storage[key] = value_term
            self.report.stores.append(
                StoreAnnotation(
                    record_index=index,
                    pc=self.trace.pcs[index],
                    value_term=value_term,
                )
            )
        elif op == "MLOAD":
            shadow.pop()
            shadow.append(self.mem_read_word(stack[-1], self.result_of(index)))
        elif op in ("MSTORE", "MSTORE8"):
            shadow.pop()
            value_term = shadow.pop()
            self.mem_write(stack[-1], 32 if op == "MSTORE" else 1, value_term)
        elif op == "SHA3":
            del shadow[-2:]
            terms = self.mem_terms(stack[-1], stack[-2])
            shadow.append(opaque("sha3", self.result_of(index), *terms) if terms else None)
        else:  # an op the interpreter records a CallEvent for
            event = self.events[index]
            target_depth, value_depth = CALL_OPERANDS[op]
            self.report.calls.append(
                CallAnnotation(
                    event=event,
                    target_term=shadow[-target_depth] if target_depth else None,
                    value_term=shadow[-value_depth] if value_depth else None,
                    control_kinds=self.control_kinds,
                )
            )
            for _ in range(pops):
                shadow.pop()
            if op in CALL_OPS:
                to = event.to
                if event.return_data is not None:
                    self.taint_returndata(
                        to, event.return_data, stack[1 - pops], stack[-pops]
                    )
                self.last_callee = to
                self.last_return = event.return_data or b""
                shadow.append(self.mark(f"callres_{i}_{to:x}", self.result_of(index)))
            elif pushes:
                shadow.append(None)
