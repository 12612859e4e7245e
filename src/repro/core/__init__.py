"""The Thorin graph IR: types, defs, world, scopes, CFG, schedule."""

from .defs import Continuation, Def, Intrinsic, Param, Use
from .limits import DeadlineExceeded, ResourceLimitError, deadline
from .primops import ArithKind, CmpRel
from .scope import Scope, top_level_continuations
from .world import World

__all__ = [
    "ArithKind",
    "CmpRel",
    "Continuation",
    "DeadlineExceeded",
    "Def",
    "Intrinsic",
    "Param",
    "ResourceLimitError",
    "Scope",
    "Use",
    "World",
    "deadline",
    "top_level_continuations",
]
