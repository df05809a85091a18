"""World state for the emulated chain: accounts, balances, code, storage."""

from __future__ import annotations

from dataclasses import dataclass

# One ether in wei; accounts are funded generously so value fuzzing never
# runs dry before an interesting transfer does.
ETHER = 10**18
INITIAL_BALANCE = 10**12 * ETHER

DEPLOYER = 0xD0E0A0000000000000000000000000000000D001
# child_address(DEPLOYER, 0): where every campaign's contract lands
DEPLOYER_CHILD = 0x9C28A17FAE4CDDAC189603A8899ECBDB88ABFCA9
BENIGN = 0xBE111C0000000000000000000000000000000B01
ATTACKER_1 = 0xA77AC4E200000000000000000000000000000A01
ATTACKER_2 = 0xA77AC4E200000000000000000000000000000A02


@dataclass(frozen=True)
class AccountSet:
    """The fixed cast of externally-owned accounts a campaign fuzzes with."""

    deployer: int = DEPLOYER
    benign: int = BENIGN
    attackers: tuple[int, ...] = (ATTACKER_1, ATTACKER_2)

    def all(self) -> tuple[int, ...]:
        return (self.deployer, self.benign) + self.attackers

    def is_attacker(self, address: int) -> bool:
        return address in self.attackers


class EmulatedState:
    """Balances, deployed code, storage and nonces for one campaign.

    Storage is keyed (address, slot); nonces count the accounts each
    creator has made.  An interpreter run changes nothing: its outcome is
    applied by ``replay``, as calls to the methods that write.
    """

    def __init__(self, accounts: AccountSet | None = None) -> None:
        self.accounts = accounts or AccountSet()
        self.balances: dict[int, int] = {
            address: INITIAL_BALANCE for address in self.accounts.all()
        }
        self.code: dict[int, bytes] = {}
        self.storage: dict[tuple[int, int], int] = {}
        self.nonces: dict[int, int] = {}

    def balance_of(self, address: int) -> int:
        return self.balances.get(address, 0)

    def credit(self, address: int, amount: int) -> None:
        self.balances[address] = self.balances.get(address, 0) + amount

    def debit(self, address: int, amount: int) -> None:
        self.balances[address] = self.balances.get(address, 0) - amount

    def sload(self, address: int, slot: int) -> int:
        return self.storage.get((address, slot), 0)

    def sstore(self, address: int, slot: int, value: int) -> None:
        if value == 0:
            self.storage.pop((address, slot), None)
        else:
            self.storage[(address, slot)] = value

    def set_code(self, address: int, code: bytes) -> None:
        self.code[address] = code

    def drop_code(self, address: int) -> None:
        self.code.pop(address, None)

    def bump_nonce(self, address: int) -> None:
        self.nonces[address] = self.nonces.get(address, 0) + 1

    def replay(self, writes) -> None:
        """Make each write, a (name of a method above, arguments) pair, in order."""
        for name, args in writes:
            getattr(self, name)(*args)

    def snapshot(self) -> tuple:
        """The items of the four maps, in their order, as one value:
        ``(balances, code, storage, nonces)``, which ``restore`` rolls the
        state back to, as a campaign does before each individual.  Keys and
        values are immutable, so the snapshot is independent of the state."""
        return (
            tuple(self.balances.items()), tuple(self.code.items()),
            tuple(self.storage.items()), tuple(self.nonces.items()),
        )

    def restore(self, snap: tuple) -> None:
        balances, code, storage, nonces = snap
        self.balances = dict(balances)
        self.code = dict(code)
        self.storage = dict(storage)
        self.nonces = dict(nonces)
