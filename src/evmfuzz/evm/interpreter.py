"""Bytecode interpreter with environment injection and full tracing.

Executes one transaction against the emulated state and records every
instruction (opcode, pc, a pre-execution stack snapshot, call depth, error
flag).  Outgoing calls never execute code: their results come from the
injectable environment, which is what lets the fuzzer mutate block values
and external call outcomes like any other input byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import json
import time

from ..keccak import keccak256
from . import opcodes
from .opcodes import CALL_OPS, MASK, WORD_OPS
from .state import EmulatedState

DEFAULT_GAS_BUDGET = 8_000_000
DEFAULT_MEMORY_CAP = 16 * 1024 * 1024
STACK_LIMIT = 1024

# Block context the contract is deployed under; campaign env ranges start here.
DEPLOY_TIMESTAMP = 1_500_000_000
DEPLOY_BLOCK_NUMBER = 5_000_000

GAS_PRICE = 1_000_000_000
COINBASE = 0xC0FFEE0000000000000000000000000000000001
DIFFICULTY = 2_500_000_000_000_000
BLOCK_GAS_LIMIT = 8_000_000


@dataclass
class EnvOverrides:
    """Fuzzable execution environment.

    call_results maps callee address to (success flag, return data) for any
    outgoing call; unlisted callees succeed and return 32 zero bytes.
    returndata_sizes and extcode_sizes override RETURNDATASIZE/EXTCODESIZE
    per address, defaulting to the injected data length and zero.
    """

    timestamp: int = DEPLOY_TIMESTAMP
    block_number: int = DEPLOY_BLOCK_NUMBER
    call_results: dict[int, tuple[int, bytes]] = field(default_factory=dict)
    returndata_sizes: dict[int, int] = field(default_factory=dict)
    extcode_sizes: dict[int, int] = field(default_factory=dict)

    def copy(self) -> "EnvOverrides":
        return EnvOverrides(
            timestamp=self.timestamp,
            block_number=self.block_number,
            call_results=dict(self.call_results),
            returndata_sizes=dict(self.returndata_sizes),
            extcode_sizes=dict(self.extcode_sizes),
        )


DEFAULT_CALL_RESULT = (1, b"\x00" * 32)


@dataclass
class Transaction:
    sender: int
    to: int
    value: int
    gas_limit: int
    data: bytes


@dataclass
class TraceRecord:
    op: str
    pc: int
    stack: tuple[int, ...]  # pre-execution snapshot, top of stack last
    depth: int
    error: bool


@dataclass
class CallEvent:
    """One outgoing CALL/CALLCODE/DELEGATECALL/STATICCALL or CREATE."""

    record_index: int
    op: str
    pc: int
    to: int
    gas: int
    value: int
    success: int
    transferred: bool  # value actually moved out of the contract


@dataclass
class ExecutionTrace:
    records: list[TraceRecord]
    terminal: str
    state_delta_applied: bool
    calls: list[CallEvent] = field(default_factory=list)
    sha3_preimages: dict[int, bytes] = field(default_factory=dict)
    return_data: bytes = b""
    gas_used: int = 0

    def jsonl(self) -> Iterator[str]:
        for record in self.records:
            yield json.dumps(
                {
                    "op": record.op,
                    "pc": record.pc,
                    "stack": [hex(item) for item in record.stack],
                    "depth": record.depth,
                    "error": record.error,
                }
            )


class DeployError(Exception):
    def __init__(self, message: str, trace: ExecutionTrace | None = None) -> None:
        super().__init__(message)
        self.trace = trace


class _Fault(Exception):
    """Internal: abnormal halt (stack misuse, bad jump, memory blowup)."""


class Interpreter:
    def __init__(
        self,
        gas_budget: int = DEFAULT_GAS_BUDGET,
        memory_cap: int = DEFAULT_MEMORY_CAP,
        wall_cap: float | None = None,
    ) -> None:
        self.gas_budget = gas_budget
        self.memory_cap = memory_cap
        self.wall_cap = wall_cap  # seconds per transaction, None = unlimited

    # ------------------------------------------------------------------
    # entry points

    def deploy(
        self,
        state: EmulatedState,
        creation_code: bytes,
        sender: int,
        value: int = 0,
        env: EnvOverrides | None = None,
        constructor_args: bytes = b"",
    ) -> tuple[int, ExecutionTrace]:
        """Run creation code; on RETURN install the runtime code.

        Constructor arguments travel appended to the creation code, which is
        where CODECOPY-based constructor prologues expect them.
        """
        env = env or EnvOverrides()
        nonce = state.nonces.get(sender, 0)
        state.nonces[sender] = nonce + 1
        address = _derive_address(sender, nonce)
        if value > state.balance_of(sender):
            raise DeployError("deployment value exceeds sender balance")
        snap = state.snapshot()
        if value:
            state.debit(sender, value)
            state.credit(address, value)
        trace = self._run(
            state,
            code=creation_code + constructor_args,
            self_addr=address,
            sender=sender,
            value=value,
            data=b"",
            gas=self.gas_budget,
            env=env,
        )
        if trace.terminal != "RETURN" or not trace.state_delta_applied:
            state.restore(snap)
            raise DeployError(f"constructor halted with {trace.terminal}", trace)
        state.code[address] = trace.return_data
        return address, trace

    def execute(
        self,
        state: EmulatedState,
        tx: Transaction,
        env: EnvOverrides | None = None,
    ) -> ExecutionTrace:
        env = env or EnvOverrides()
        code = state.code.get(tx.to, b"")
        snap = state.snapshot()
        if tx.value > state.balance_of(tx.sender):
            # Unpayable transaction: a synthetic fault record, nothing applied.
            record = TraceRecord("INVALID", 0, (), 0, True)
            return ExecutionTrace([record], "INVALID", False)
        if tx.value:
            state.debit(tx.sender, tx.value)
            state.credit(tx.to, tx.value)
            state.received_from[tx.sender] = (
                state.received_from.get(tx.sender, 0) + tx.value
            )
        trace = self._run(
            state,
            code=code,
            self_addr=tx.to,
            sender=tx.sender,
            value=tx.value,
            data=tx.data,
            gas=min(tx.gas_limit, self.gas_budget),
            env=env,
        )
        if not trace.state_delta_applied:
            state.restore(snap)
        return trace

    # ------------------------------------------------------------------
    # core loop

    def _run(
        self,
        state: EmulatedState,
        code: bytes,
        self_addr: int,
        sender: int,
        value: int,
        data: bytes,
        gas: int,
        env: EnvOverrides,
    ) -> ExecutionTrace:
        records: list[TraceRecord] = []
        calls: list[CallEvent] = []
        preimages: dict[int, bytes] = {}
        stack: list[int] = []
        memory = bytearray()
        returndata = b""
        last_callee: int | None = None
        jumpdests = opcodes.valid_jumpdests(code)
        pc = 0
        used = 0
        terminal = ""
        applied = True
        return_data = b""
        give_up_at = time.monotonic() + self.wall_cap if self.wall_cap else None

        def push(x: int) -> None:
            if len(stack) >= STACK_LIMIT:
                raise _Fault("stack overflow")
            stack.append(x & MASK)

        def pop() -> int:
            if not stack:
                raise _Fault("stack underflow")
            return stack.pop()

        def touch(offset: int, size: int) -> None:
            if size == 0:
                return
            end = offset + size
            if end > self.memory_cap:
                raise _Fault("memory cap exceeded")
            if end > len(memory):
                memory.extend(b"\x00" * (((end + 31) // 32) * 32 - len(memory)))

        def mread(offset: int, size: int) -> bytes:
            touch(offset, size)
            return bytes(memory[offset:offset + size])

        def mwrite(offset: int, blob: bytes) -> None:
            touch(offset, len(blob))
            memory[offset:offset + len(blob)] = blob

        def mcopy(dest: int, source: bytes, offset: int, size: int) -> None:
            touch(dest, size)  # before padding: a huge size faults, not allocates
            memory[dest:dest + size] = source[offset:offset + size].ljust(size, b"\x00")

        while True:
            if used >= gas:
                terminal = "OUT_OF_GAS"
                applied = False
                break
            if (
                give_up_at is not None
                and not (used & 0xFFF)
                and time.monotonic() > give_up_at
            ):
                terminal = "TIMEOUT"
                applied = False
                break
            opcode = code[pc] if pc < len(code) else 0x00  # implicit STOP pad
            entry = opcodes.TABLE.get(opcode)
            if entry is None:
                # Unassigned opcode: abnormal halt, same as a synthetic fault.
                records.append(TraceRecord("INVALID", pc, tuple(stack), 0, True))
                terminal = "INVALID"
                applied = False
                break
            name, pops, _ = entry
            records.append(TraceRecord(name, pc, tuple(stack), 0, False))
            used += 1
            try:
                if len(stack) < pops:
                    raise _Fault("stack underflow")

                word_op = WORD_OPS.get(name)
                if word_op is not None:
                    # operands top of stack first; the result is a word
                    operands = stack[:-pops - 1:-1]
                    del stack[-pops:]
                    stack.append(word_op(*operands))
                elif name == "STOP":
                    terminal = "STOP"
                    break
                elif name == "SHA3":
                    offset, size = pop(), pop()
                    blob = mread(offset, size)
                    digest = int.from_bytes(keccak256(blob), "big")
                    preimages[digest] = blob
                    push(digest)
                elif name == "ADDRESS":
                    push(self_addr)
                elif name == "BALANCE":
                    push(state.balance_of(pop()))
                elif name == "ORIGIN":
                    push(sender)  # single-level execution: origin == caller
                elif name == "CALLER":
                    push(sender)
                elif name == "CALLVALUE":
                    push(value)
                elif name == "CALLDATALOAD":
                    offset = pop()
                    word = data[offset:offset + 32]
                    push(int.from_bytes(word.ljust(32, b"\x00"), "big"))
                elif name == "CALLDATASIZE":
                    push(len(data))
                elif name == "CALLDATACOPY":
                    dest, offset, size = pop(), pop(), pop()
                    mcopy(dest, data, offset, size)
                elif name == "CODESIZE":
                    push(len(code))
                elif name == "CODECOPY":
                    dest, offset, size = pop(), pop(), pop()
                    mcopy(dest, code, offset, size)
                elif name == "GASPRICE":
                    push(GAS_PRICE)
                elif name == "EXTCODESIZE":
                    push(env.extcode_sizes.get(pop(), 0))
                elif name == "RETURNDATASIZE":
                    if last_callee is not None and last_callee in env.returndata_sizes:
                        push(env.returndata_sizes[last_callee])
                    else:
                        push(len(returndata))
                elif name == "RETURNDATACOPY":
                    dest, offset, size = pop(), pop(), pop()
                    mcopy(dest, returndata, offset, size)
                elif name == "BLOCKHASH":
                    n = pop()
                    digest = keccak256(b"blockhash" + n.to_bytes(32, "big"))
                    push(int.from_bytes(digest, "big"))
                elif name == "COINBASE":
                    push(COINBASE)
                elif name == "TIMESTAMP":
                    push(env.timestamp)
                elif name == "NUMBER":
                    push(env.block_number)
                elif name == "DIFFICULTY":
                    push(DIFFICULTY)
                elif name == "GASLIMIT":
                    push(BLOCK_GAS_LIMIT)
                elif name == "POP":
                    pop()
                elif name == "MLOAD":
                    push(int.from_bytes(mread(pop(), 32), "big"))
                elif name == "MSTORE":
                    offset, word = pop(), pop()
                    mwrite(offset, word.to_bytes(32, "big"))
                elif name == "MSTORE8":
                    offset, word = pop(), pop()
                    mwrite(offset, bytes([word & 0xFF]))
                elif name == "SLOAD":
                    push(state.sload(self_addr, pop()))
                elif name == "SSTORE":
                    slot, word = pop(), pop()
                    state.sstore(self_addr, slot, word)
                elif name == "JUMP":
                    dest = pop()
                    if dest not in jumpdests:
                        raise _Fault("bad jump destination")
                    pc = dest
                    continue
                elif name == "JUMPI":
                    dest, cond = pop(), pop()
                    if cond:
                        if dest not in jumpdests:
                            raise _Fault("bad jump destination")
                        pc = dest
                        continue
                elif name == "PC":
                    push(pc)
                elif name == "MSIZE":
                    push(len(memory))
                elif name == "GAS":
                    push(gas - used)
                elif name == "JUMPDEST":
                    pass
                elif name.startswith("PUSH"):
                    width = opcodes.push_width(opcode)
                    push(int.from_bytes(code[pc + 1:pc + 1 + width].ljust(width, b"\x00"), "big"))
                    pc += 1 + width
                    continue
                elif name.startswith("DUP"):
                    push(stack[-pops])
                elif name.startswith("SWAP"):
                    stack[-1], stack[-pops] = stack[-pops], stack[-1]
                elif name.startswith("LOG"):
                    offset, size = pop(), pop()
                    mread(offset, size)
                    del stack[len(stack) + 2 - pops:]  # the topics
                elif name == "CREATE":
                    create_value, offset, size = pop(), pop(), pop()
                    mread(offset, size)
                    if create_value > state.balance_of(self_addr):
                        child, success = 0, 0
                    else:
                        nonce = state.nonces.get(self_addr, 0)
                        state.nonces[self_addr] = nonce + 1
                        child = _derive_address(self_addr, nonce)
                        if create_value:
                            state.debit(self_addr, create_value)
                            state.credit(child, create_value)
                        # Initialisation code is not executed; the child is an
                        # empty account at a fresh deterministic address.
                        state.code.setdefault(child, b"")
                        success = 1
                    calls.append(
                        CallEvent(len(records) - 1, name, records[-1].pc, child, 0,
                                  create_value, success, bool(success and create_value))
                    )
                    push(child)
                elif name in CALL_OPS:
                    call_gas, to = pop(), pop()
                    call_value = pop() if pops == 7 else 0  # CALL and CALLCODE
                    in_off, in_sz, out_off, out_sz = pop(), pop(), pop(), pop()
                    mread(in_off, in_sz)
                    touch(out_off, out_sz)
                    last_callee = to
                    if call_value > state.balance_of(self_addr):
                        success, returndata, transferred = 0, b"", False
                    else:
                        success, returndata = env.call_results.get(to, DEFAULT_CALL_RESULT)
                        # CALLCODE runs the callee's code against our own
                        # account, so no value leaves the contract.
                        transferred = bool(call_value and success and name == "CALL")
                        if transferred:
                            state.debit(self_addr, call_value)
                            state.credit(to, call_value)
                        mcopy(out_off, returndata, 0, out_sz)
                    calls.append(
                        CallEvent(len(records) - 1, name, records[-1].pc,
                                  to, call_gas, call_value, success, transferred)
                    )
                    push(success)
                elif name == "RETURN":
                    offset, size = pop(), pop()
                    return_data = mread(offset, size)
                    terminal = "RETURN"
                    break
                elif name == "REVERT":
                    offset, size = pop(), pop()
                    return_data = mread(offset, size)
                    terminal = "REVERT"
                    applied = False
                    break
                elif name == "INVALID":
                    terminal = "INVALID"
                    applied = False
                    break
                elif name == "SELFDESTRUCT":
                    beneficiary = pop()
                    swept = state.balance_of(self_addr)
                    if swept:
                        state.debit(self_addr, swept)
                        state.credit(beneficiary, swept)
                    state.code.pop(self_addr, None)
                    calls.append(
                        CallEvent(len(records) - 1, name, records[-1].pc,
                                  beneficiary, 0, swept, 1, swept > 0)
                    )
                    terminal = "SELFDESTRUCT"
                    break
                else:  # pragma: no cover - table and dispatch agree
                    raise _Fault(f"unhandled opcode {name}")
            except _Fault:
                records.append(TraceRecord("INVALID", pc, tuple(stack), 0, True))
                terminal = "INVALID"
                applied = False
                break
            pc += 1

        return ExecutionTrace(
            records=records,
            terminal=terminal,
            state_delta_applied=applied,
            calls=calls,
            sha3_preimages=preimages,
            return_data=return_data,
            gas_used=used,
        )


def _derive_address(creator: int, nonce: int) -> int:
    blob = creator.to_bytes(20, "big") + nonce.to_bytes(8, "big")
    return int.from_bytes(keccak256(blob)[12:], "big")
