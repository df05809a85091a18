"""Benchmark inputs: the contracts each workload fuzzes, with expectations
worked out independently of the analyses under test.

Everything here is built from the benchmark's own sources and a seed, so a
later edit to the repository's test fixtures cannot shift the benchmark.
Only the program's assembler is used, to turn the listings into bytecode.

- ``fixture_contracts``: fourteen hand-assembled contracts in the shape a
  compiler emits (four-byte dispatcher, CALLVALUE guard on non-payable
  functions, 2300-gas stipend on ``transfer``).  Ten carry one bug each,
  named by the detector kind that must report it; three are traps that
  must report nothing; TokenSale is a realistic mix with no expectation.
- ``storage_program``: straight-line programs mixing SLOAD and SSTORE over
  declared, offset, mapping, array and nested-mapping slots.  The expected
  read and write sets follow from the chosen layout parameters alone.
- ``guard_program``: ``probe(x)`` behind one comparison over ``x``;
  satisfiable guards are built from a witness, unsatisfiable ones from a
  structural contradiction, so satisfiability is known by construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from random import Random

from evmfuzz.asm import assemble

ETHER = 10**18
TOKEN = 0x70CE70CE70CE70CE70CE70CE70CE70CE70CE70CE  # a token counterparty
SINK = 0x000000000000000000000000000000000000CAFE  # a payout sink

# Keccak-256 selectors, fixed here so that building the inputs hashes
# nothing: the program's own hashing is measured, not warmed, by the run.
SELECTORS = {
    "Tokensale()": 0x99EC140D,
    "buy()": 0xA6F2AE3A,
    "withdraw()": 0x3CCFD60B,
    "run()": 0xC0406226,
    "transfer(address,uint256)": 0xA9059CBB,
    "setCallee(address)": 0x83A4354B,
    "forward(bytes)": 0xD948D468,
    "poke(uint256)": 0x32145F90,
    "add(uint256)": 0x1003E2D2,
    "refund()": 0x590E1AE3,
    "lucky()": 0xD9C291CF,
    "setPrice(uint256)": 0x91B7F5ED,
    "pay()": 0x1B9265B8,
    "ping()": 0x5C36B186,
    "give()": 0x9E96A23A,
    "kill()": 0x41C0E1B5,
    "probe(uint256)": 0xDB082440,
}

TRAP = "trap"  # expectation of a contract on which every finding is false


@dataclass(frozen=True)
class Contract:
    """One campaign target and what its campaign must show."""

    name: str
    abi_json: str
    runtime: bytes
    creation: bytes | None = None
    constructor_args: bytes = b""
    balance: int = 0
    expect: str | None = None  # detector kind, TRAP, or None
    guard_pc: int | None = None  # first pc of a guard's win block
    satisfiable: bool | None = None  # for guards
    reads: frozenset | None = None  # expected slot identities, storage only
    writes: frozenset | None = None


def _abi(*functions: str, payable: tuple[str, ...] = (), **extra) -> str:
    """ABI JSON for the given signatures (plus optional constructor/fallback)."""
    entries = []
    if "constructor" in extra:
        entries.append({"type": "constructor",
                        "inputs": [{"type": t} for t in extra["constructor"]]})
    for signature in functions:
        name, args = signature[:-1].split("(")
        entries.append({
            "type": "function",
            "name": name,
            "inputs": [{"type": t} for t in args.split(",") if t],
            "stateMutability": "payable" if signature in payable else "nonpayable",
        })
    if "fallback" in extra:
        entries.append({"type": "fallback", "stateMutability": extra["fallback"]})
    return json.dumps(entries)


def _dispatch(*routes: tuple[str, str]) -> str:
    """Selector dispatcher jumping to a label per signature, else ``revert``."""
    lines = ["PUSH1 0x00", "CALLDATALOAD", "PUSH1 0xe0", "SHR"]
    for index, (signature, label) in enumerate(routes):
        if index < len(routes) - 1:
            lines.append("DUP1")
        lines += [f"PUSH4 {SELECTORS[signature]:#010x}", "EQ", f"PUSH @{label}", "JUMPI"]
    lines += ["revert:", "JUMPDEST", "PUSH1 0x00", "PUSH1 0x00", "REVERT"]
    return "\n".join(lines) + "\n"


def _creation(prologue: str, runtime: bytes, epilogue: str = "") -> bytes:
    """Constructor code that runs ``prologue`` then returns ``runtime``."""
    return assemble(
        f"""
    {prologue}
    PUSH @code_end-@runtime
    DUP1
    PUSH @runtime
    PUSH1 0x00
    CODECOPY
    PUSH1 0x00
    RETURN
    {epilogue}
runtime:
    DATA 0x{runtime.hex()}
code_end:
"""
    )


def _send(amount: str, to: str, gas: str) -> str:
    """CALL with no calldata, reverting when it fails."""
    return f"""
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x00
    PUSH1 0x00
    {amount}
    {to}
    {gas}
    CALL
    ISZERO
    PUSH @revert
    JUMPI
"""


_NONPAYABLE = "CALLVALUE\nPUSH @revert\nJUMPI\n"
_SINK = f"PUSH20 {SINK:#042x}"
_TOKEN = f"PUSH20 {TOKEN:#042x}"
_ARG0 = "PUSH1 0x04\nCALLDATALOAD\n"


def _token_sale() -> Contract:
    # slots: 0 start, 1 end = start + 30 days, 2 sold flag, 3 owner.
    # Tokensale() should have been the constructor: anyone can call it to
    # become owner, and withdraw() pays the owner once the sale is over.
    payout = _send("ADDRESS\nBALANCE", "PUSH1 0x03\nSLOAD", "PUSH2 0x08fc")
    runtime = assemble(
        _dispatch(("Tokensale()", "tokensale"), ("buy()", "buy"), ("withdraw()", "withdraw"))
        + f"""
tokensale:
    JUMPDEST
    {_NONPAYABLE}
    TIMESTAMP
    PUSH1 0x00
    SSTORE
    TIMESTAMP
    PUSH3 0x278d00
    ADD
    PUSH1 0x01
    SSTORE
    CALLER
    PUSH1 0x03
    SSTORE
    STOP
buy:
    JUMPDEST
    TIMESTAMP
    PUSH1 0x01
    SLOAD
    LT                      ; require(now <= end)
    PUSH @revert
    JUMPI
    CALLVALUE
    TIMESTAMP
    PUSH1 0x00
    SLOAD
    SWAP1
    SUB
    PUSH3 0x015180
    SWAP1
    DIV                     ; elapsed days
    PUSH8 0x0de0b6b3a7640000
    MUL
    PUSH9 0x0246ddf97976680000
    ADD                     ; price: 42 ether + 1 ether per day
    EQ
    ISZERO
    PUSH @revert
    JUMPI
    PUSH4 0x23b872dd        ; token.transferFrom(this, msg.sender, 1)
    PUSH1 0xe0
    SHL
    PUSH1 0x00
    MSTORE
    ADDRESS
    PUSH1 0x04
    MSTORE
    CALLER
    PUSH1 0x24
    MSTORE
    PUSH1 0x01
    PUSH1 0x44
    MSTORE
    PUSH1 0x20
    PUSH1 0x00
    PUSH1 0x64
    PUSH1 0x00
    PUSH1 0x00
    {_TOKEN}
    GAS
    CALL
    ISZERO
    PUSH @revert
    JUMPI
    PUSH1 0x01
    PUSH1 0x02
    SSTORE
    STOP
withdraw:
    JUMPDEST
    {_NONPAYABLE}
    PUSH1 0x01
    SLOAD
    TIMESTAMP
    LT                      ; require(now >= end)
    PUSH @revert
    JUMPI
    PUSH1 0x02
    SLOAD
    ISZERO                  ; require(sold)
    PUSH @revert
    JUMPI
    CALLER
    PUSH1 0x03
    SLOAD
    EQ
    ISZERO                  ; require(msg.sender == owner)
    PUSH @revert
    JUMPI
    {payout}
    STOP
"""
    )
    schedule = "TIMESTAMP\nPUSH1 0x00\nSSTORE\nTIMESTAMP\nPUSH3 0x278d00\nADD\nPUSH1 0x01\nSSTORE\n"
    return Contract(
        "TokenSale",
        _abi("Tokensale()", "buy()", "withdraw()", payable=("buy()",)),
        runtime,
        creation=_creation(schedule, runtime),
    )


def _safe_assert() -> Contract:
    # the constructor requires a positive parameter and nothing rewrites
    # it, so run()'s assert(param > 0) can never fire
    runtime = assemble(
        _dispatch(("run()", "run"))
        + f"""
run:
    JUMPDEST
    {_NONPAYABLE}
    PUSH1 0x00
    SLOAD
    PUSH @ok
    JUMPI
    INVALID
ok:
    JUMPDEST
    STOP
"""
    )
    prologue = """
    PUSH1 0x20              ; the argument sits after the code
    CODESIZE
    PUSH1 0x20
    SWAP1
    SUB
    PUSH1 0x00
    CODECOPY
    PUSH1 0x00
    MLOAD
    DUP1
    ISZERO
    PUSH @bad
    JUMPI
    PUSH1 0x00
    SSTORE
"""
    bad = "bad:\nJUMPDEST\nPUSH1 0x00\nPUSH1 0x00\nREVERT\n"
    return Contract(
        "SafeAssert",
        _abi("run()", constructor=("uint256",)),
        runtime,
        creation=_creation(prologue, runtime, bad),
        constructor_args=(1).to_bytes(32, "big"),
        expect=TRAP,
    )


_BALANCE_SLOT = "PUSH1 0x00\nMSTORE\nPUSH1 0x40\nPUSH1 0x00\nSHA3\n"  # key at 0, base at 0x20


def _guarded_add() -> Contract:
    # transfer() has the textbook `balance += v`, but no balance can ever be
    # funded, so the guard forces v == 0 and the add cannot overflow
    runtime = assemble(
        _dispatch(("transfer(address,uint256)", "transfer"))
        + f"""
transfer:
    JUMPDEST
    {_NONPAYABLE}
    PUSH1 0x00
    PUSH1 0x20
    MSTORE
    CALLER
    {_BALANCE_SLOT}
    DUP1
    SLOAD                   ; [slot, balance]
    PUSH1 0x24
    CALLDATALOAD            ; [slot, balance, value]
    DUP1
    DUP3
    LT                      ; require(balance >= value)
    PUSH @revert
    JUMPI
    DUP1
    DUP3
    SUB
    DUP4
    SSTORE
    {_ARG0}
    PUSH20 0xffffffffffffffffffffffffffffffffffffffff
    AND
    {_BALANCE_SLOT}
    DUP1
    SLOAD
    DUP3
    ADD                     ; balanceOf[to] += value
    SWAP1
    SSTORE
    POP
    POP
    POP
    STOP
"""
    )
    return Contract("GuardedAdd", _abi("transfer(address,uint256)"), runtime, expect=TRAP)


def _proxy(owner_gated: bool) -> bytes:
    # slot 0 callee, slot 1 owner; forward() delegatecalls the callee
    guard = "CALLER\nPUSH1 0x01\nSLOAD\nEQ\nISZERO\nPUSH @revert\nJUMPI\n"
    return assemble(
        _dispatch(("setCallee(address)", "setcallee"), ("forward(bytes)", "forward"))
        + f"""
setcallee:
    JUMPDEST
    {_NONPAYABLE}
    {guard if owner_gated else ""}
    {_ARG0}
    PUSH20 0xffffffffffffffffffffffffffffffffffffffff
    AND
    PUSH1 0x00
    SSTORE
    STOP
forward:
    JUMPDEST
    {_NONPAYABLE}
    {_ARG0}
    PUSH1 0x04
    ADD
    DUP1
    CALLDATALOAD            ; [length position, length]
    SWAP1
    PUSH1 0x20
    ADD
    DUP2
    SWAP1
    PUSH1 0x00
    CALLDATACOPY            ; [length]
    PUSH1 0x00
    PUSH1 0x00
    DUP3
    PUSH1 0x00
    PUSH1 0x00
    SLOAD
    GAS
    DELEGATECALL
    ISZERO
    PUSH @revert
    JUMPI
    STOP
"""
    )


_PROXY_ABI = _abi("setCallee(address)", "forward(bytes)")


def _single(signature: str, body: str) -> bytes:
    return assemble(_dispatch((signature, "body")) + "body:\nJUMPDEST\n" + body)


def _mini_corpus() -> list[Contract]:
    """One deliberately broken contract per detector kind."""
    return [
        Contract("FailingAssert", _abi("poke(uint256)"), _single(
            "poke(uint256)", f"{_ARG0}PUSH1 0x0a\nSWAP1\nLT\nPUSH @ok\nJUMPI\nINVALID\n"
            "ok:\nJUMPDEST\nSTOP\n"), expect="AF"),
        Contract("RunningTotal", _abi("add(uint256)"), _single(
            "add(uint256)", f"{_ARG0}PUSH1 0x00\nSLOAD\nADD\nPUSH1 0x00\nSSTORE\nSTOP\n"),
            expect="IO"),
        Contract("EagerRefund", _abi("refund()"), _single(
            "refund()", _send("PUSH1 0x01", _SINK, "PUSH2 0xc350")
            + "PUSH1 0x01\nPUSH1 0x00\nSSTORE\nSTOP\n"), balance=ETHER, expect="RE"),
        Contract("BlockLottery", _abi("lucky()"), _single(
            "lucky()", "PUSH1 0x02\nTIMESTAMP\nMOD\nPUSH @skip\nJUMPI\n"
            + _send("PUSH1 0x01", _SINK, "PUSH2 0x08fc") + "skip:\nJUMPDEST\nSTOP\n"),
            balance=ETHER, expect="BD"),
        Contract("PostedPrice", _abi("setPrice(uint256)", "pay()"), assemble(
            _dispatch(("setPrice(uint256)", "setprice"), ("pay()", "pay"))
            + f"setprice:\nJUMPDEST\n{_ARG0}PUSH1 0x00\nSSTORE\nSTOP\npay:\nJUMPDEST\n"
            + _send("PUSH1 0x00\nSLOAD", _SINK, "PUSH2 0x08fc") + "STOP\n"),
            balance=ETHER, expect="TD"),
        Contract("UncheckedPing", _abi("ping()"), _single(
            "ping()", f"PUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\nPUSH1 0x00\n"
            f"{_TOKEN}\nGAS\nCALL\nPOP\nSTOP\n"), expect="UE"),
        Contract("OpenRelay", _PROXY_ABI, _proxy(owner_gated=False), expect="UD"),
        Contract("TipJar", _abi("give()"), _single(
            "give()", _send("PUSH1 0x01", "CALLER", "PUSH2 0x08fc") + "STOP\n"),
            balance=ETHER, expect="LE"),
        Contract("PiggyBank", _abi(fallback="payable"), assemble("STOP"), expect="LO"),
        Contract("KillSwitch", _abi("kill()"), _single("kill()", "CALLER\nSELFDESTRUCT\n"),
                 expect="US"),
    ]


def fixture_contracts() -> list[Contract]:
    owned = _proxy(owner_gated=True)
    return [
        _token_sale(),
        _safe_assert(),
        _guarded_add(),
        Contract(
            "OwnedProxy", _PROXY_ABI, owned,
            creation=_creation("CALLER\nPUSH1 0x01\nSSTORE\n", owned), expect=TRAP,
        ),
        *_mini_corpus(),
    ]


# ---------------------------------------------------------------------------
# storage programs

_SLOT_SHAPES = ("fixed", "offset", "mapping", "array", "nested")
_HASH_PAIR = "PUSH1 0x40\nPUSH1 0x00\nSHA3\n"  # keccak(mem[0:64])


def _slot_access(rng: Random, shape: str) -> tuple[str, tuple]:
    """Assembly leaving one slot number on the stack, and its identity."""
    if shape == "fixed":
        slot = rng.randrange(64)
        return f"PUSH {slot}\n", (slot, ())
    if shape == "offset":
        base, delta = rng.randrange(1 << 16), rng.randrange(1, 1 << 8)
        return f"PUSH {delta}\nPUSH {base}\nADD\n", (base + delta, ())
    base = rng.randrange(64)
    if shape == "array":
        index = rng.randrange(256)
        return (
            f"PUSH {base}\nPUSH1 0x00\nMSTORE\nPUSH1 0x20\nPUSH1 0x00\nSHA3\nPUSH {index}\nADD\n",
            (base, (("arr", index),)),
        )
    outer = rng.getrandbits(256)
    text = f"PUSH {outer}\nPUSH1 0x00\nMSTORE\nPUSH {base}\nPUSH1 0x20\nMSTORE\n{_HASH_PAIR}"
    path = (("map", outer),)
    if shape == "nested":
        inner = rng.getrandbits(256)
        text += f"PUSH1 0x20\nMSTORE\nPUSH {inner}\nPUSH1 0x00\nMSTORE\n{_HASH_PAIR}"
        path += (("map", inner),)
    return text, (base, path)


def storage_program(rng: Random, name: str, accesses) -> Contract:
    """A straight-line program making the given (shape, is_read) accesses."""
    source = []
    reads, writes = set(), set()
    for shape, is_read in accesses:
        text, identity = _slot_access(rng, shape)
        if is_read:
            source.append(text + "SLOAD\nPOP\n")
            reads.add(identity)
        else:
            # value below the slot: SSTORE pops the slot first
            source.append(f"PUSH {rng.getrandbits(64)}\n" + text + "SSTORE\n")
            writes.add(identity)
    source.append("STOP\n")
    return Contract(
        name, _abi(fallback="nonpayable"), assemble("".join(source)),
        reads=frozenset(reads), writes=frozenset(writes),
    )


def storage_batch(rng: Random, count: int) -> list[Contract]:
    """``count`` programs of 3 to 8 accesses each.  Lengths, shapes and the
    read/write split are balanced over the batch and only dealt out by the
    seed, so every batch hashes about as much as any other."""
    lengths = [3 + i % 6 for i in range(count)]
    total = sum(lengths)
    shapes = [_SLOT_SHAPES[i % len(_SLOT_SHAPES)] for i in range(total)]
    kinds = [i % 2 == 0 for i in range(total)]
    rng.shuffle(shapes)
    rng.shuffle(kinds)
    accesses = list(zip(shapes, kinds))
    programs = []
    for index, length in enumerate(lengths):
        programs.append(storage_program(rng, f"slots{index}", accesses[:length]))
        accesses = accesses[length:]
    return programs


# ---------------------------------------------------------------------------
# single-guard programs

_MOD = 1 << 256
_WIN_BLOCK = "JUMPDEST\nPUSH2 0xbeef\nPUSH1 0x00\nSSTORE\nSTOP\n"
GUARD_FORMS = ("eq", "add", "sub", "mul", "xor", "and", "or", "shr", "lt")
_ALWAYS_SATISFIABLE = {"eq", "add", "sub", "xor"}


def _guard_ops(rng: Random, form: str, satisfiable: bool) -> str:
    """Assembly turning the argument on the stack into a 0/1 flag."""
    x = rng.getrandbits(256)  # the witness when satisfiable
    if form == "eq":
        return f"PUSH {x}\nEQ\n"
    if form == "add":
        addend = rng.getrandbits(256)
        return f"PUSH {addend}\nADD\nPUSH {(x + addend) % _MOD}\nEQ\n"
    if form == "sub":
        sub = rng.getrandbits(256)
        return f"PUSH {sub}\nSWAP1\nSUB\nPUSH {(x - sub) % _MOD}\nEQ\n"
    if form == "xor":
        mask = rng.getrandbits(256)
        return f"PUSH {mask}\nXOR\nPUSH {x ^ mask}\nEQ\n"
    if form == "mul":
        if satisfiable:
            factor = rng.getrandbits(128) | 1  # odd, so invertible
            target = x * factor % _MOD
        else:
            factor = (rng.getrandbits(128) << 1) or 2  # even products are even
            target = rng.getrandbits(256) | 1
        return f"PUSH {factor}\nMUL\nPUSH {target}\nEQ\n"
    if form == "and":
        mask = rng.getrandbits(256) & ~1  # bit 0 never survives the AND
        target = x & mask if satisfiable else (x & mask) | 1
        return f"PUSH {mask}\nAND\nPUSH {target}\nEQ\n"
    if form == "or":
        forced = rng.getrandbits(256) | 1  # bit 0 always set by the OR
        target = x | forced if satisfiable else (x | forced) ^ 1
        return f"PUSH {forced}\nOR\nPUSH {target}\nEQ\n"
    if form == "shr":
        shift = rng.randrange(1, 129)
        target = x >> shift if satisfiable else (1 << (256 - shift)) + 1
        return f"PUSH {shift}\nSHR\nPUSH {target}\nEQ\n"
    if form == "lt":
        bound = rng.getrandbits(256) | 1 if satisfiable else 0  # x < 0 never holds
        return f"PUSH {bound}\nSWAP1\nLT\n"
    raise ValueError(form)


def guard_program(rng: Random, name: str, form: str, satisfiable: bool) -> Contract:
    runtime = assemble(
        _dispatch(("probe(uint256)", "body"))
        + f"body:\nJUMPDEST\n{_ARG0}{_guard_ops(rng, form, satisfiable)}"
        + f"PUSH @win\nJUMPI\nSTOP\nwin:\n{_WIN_BLOCK}"
    )
    return Contract(
        f"{name}-{form}-{'sat' if satisfiable else 'unsat'}",
        _abi("probe(uint256)"),
        runtime,
        guard_pc=len(runtime) - len(assemble(_WIN_BLOCK)),
        satisfiable=satisfiable,
    )


def guard_batch(rng: Random, per_kind: int) -> list[Contract]:
    """``per_kind`` guards of every form, satisfiable and (where the form
    allows it) not; the seed picks the constants."""
    kinds = [(form, sat) for form in GUARD_FORMS for sat in (True, False)
             if sat or form not in _ALWAYS_SATISFIABLE]
    return [guard_program(rng, f"guard{index}", form, sat)
            for index, (form, sat) in enumerate(kinds * per_kind)]
