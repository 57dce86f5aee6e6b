"""Count the calls into one function while another runs.

`calls_into(code, fn, *args)` installs a `sys.setprofile` hook, runs
`fn(*args)` and returns how many Python frames of `code` were entered.
Passing a code object rather than a function counts a function however it
was reached: through any name it is bound to, or as a method.
"""

from __future__ import annotations

import sys
from types import CodeType


def calls_into(code: CodeType, fn, *args) -> int:
    """Calls of `code` during fn(*args)."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code is code:
            calls += 1

    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls
