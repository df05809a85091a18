from .interpreter import (
    CallEvent,
    DeployError,
    EnvOverrides,
    ExecutionTrace,
    Interpreter,
    TraceRecord,
    Transaction,
    DEPLOY_TIMESTAMP,
    DEPLOY_BLOCK_NUMBER,
)
from .state import AccountSet, EmulatedState, ETHER
from . import opcodes

__all__ = [
    "AccountSet",
    "CallEvent",
    "DeployError",
    "EmulatedState",
    "EnvOverrides",
    "ExecutionTrace",
    "Interpreter",
    "TraceRecord",
    "Transaction",
    "opcodes",
    "ETHER",
    "DEPLOY_TIMESTAMP",
    "DEPLOY_BLOCK_NUMBER",
]
