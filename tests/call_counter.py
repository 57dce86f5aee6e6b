"""Count the calls into one function while another runs.

`calls_into(code, fn, *args)` installs a `sys.setprofile` hook, runs
`fn(*args)` and returns how many Python frames of `code` were entered.
`arguments_of(code, fn, *args)` returns, for each of those calls, its
arguments by name, and `call_log(codes, fn, *args)` the name and arguments
of each call of any of several codes, in the order they were made.  Passing
a code object rather than a function counts a function however it was
reached: through any name it is bound to, or as a method.
"""

from __future__ import annotations

import sys
from types import CodeType


def call_log(codes: tuple[CodeType, ...], fn, *args) -> list[tuple[str, dict]]:
    """(name, arguments by name) of each call of any of `codes` during
    fn(*args), in order."""
    calls = []
    wanted = {id(code) for code in codes}

    def hook(frame, event, arg):
        if event == "call" and id(frame.f_code) in wanted:
            calls.append((frame.f_code.co_name, dict(frame.f_locals)))

    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


def arguments_of(code: CodeType, fn, *args) -> list[dict]:
    """The arguments, by name, of each call of `code` during fn(*args)."""
    return [arguments for _, arguments in call_log((code,), fn, *args)]


def calls_into(code: CodeType, fn, *args) -> int:
    """Calls of `code` during fn(*args)."""
    return len(arguments_of(code, fn, *args))
