"""Deep MiniC recursion on the default tier.

The decoded and strict tiers keep MiniC frames in a list, so call depth is
bounded only by the step budget.  The default interpreter and ``repro run``
must therefore return normally at any depth the budget allows, with the
same outcome as the strict reference.  (The opt-in compiled tier nests one
Python frame per MiniC call and is bounded by ``sys.getrecursionlimit()``.)
"""

import pytest

from repro.cli import main
from repro.lang import compile_source
from repro.runtime.interpreter import Interpreter

SOURCE = """
int f(int n) {
    if (n == 0) { return 0; }
    return f(n - 1) + 1;
}
int main(int n) {
    return f(n);
}
"""


def _outcome(module, depth, mode=None):
    out = Interpreter(module, args=[depth], mode=mode).run()
    return out.failed, out.exit_value, out.steps, out.base_cost


@pytest.mark.parametrize("depth", [500, 1000, 2000, 20000])
def test_default_tier_handles_deep_recursion(depth, tmp_path, capsys):
    module = compile_source(SOURCE)
    expected = _outcome(module, depth, mode="strict")
    assert expected[:3] == (False, depth, 13 * depth + 13)
    assert _outcome(module, depth) == expected

    path = tmp_path / "deep.minic"
    path.write_text(SOURCE)
    assert main(["run", str(path), str(depth)]) == 0
    printed = tuple(int(field.split("=")[1])
                    for field in capsys.readouterr().err.split())
    assert printed == expected[1:]  # exit=, steps=, cycles=
