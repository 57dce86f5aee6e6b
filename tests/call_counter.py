"""Count the calls into one function while another runs.

`calls_into(code, fn, *args)` installs a `sys.setprofile` hook, runs
`fn(*args)` and returns how many Python frames of `code` were entered.
`arguments_of(code, fn, *args)` returns, for each of those calls, its
arguments by name.  Passing a code object rather than a function counts a
function however it was reached: through any name it is bound to, or as a
method.
"""

from __future__ import annotations

import sys
from types import CodeType


def arguments_of(code: CodeType, fn, *args) -> list[dict]:
    """The arguments, by name, of each call of `code` during fn(*args)."""
    calls = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls.append(dict(frame.f_locals))

    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def calls_into(code: CodeType, fn, *args) -> int:
    """Calls of `code` during fn(*args)."""
    return len(arguments_of(code, fn, *args))
