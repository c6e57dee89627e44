"""The README's library quickstart runs, and each of its comments shows
the ``repr`` of the line it follows, as a REPL would echo it."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quickstart_lines():
    text = README.read_text().split("## Library quickstart", 1)[1]
    return text.split("```python\n", 1)[1].split("```", 1)[0].splitlines()


def test_quickstart_comments_show_the_repr():
    namespace = {}
    shown = None  # the repr of the last expression line
    checked = 0
    for line in quickstart_lines():
        code, sep, comment = line.partition("# ")
        code = code.strip()
        if code:
            try:
                expression = compile(code, "<quickstart>", "eval")
            except SyntaxError:
                exec(code, namespace)
                shown = None
            else:
                shown = repr(eval(expression, namespace))
        if sep:
            assert comment.strip() == shown, line
            checked += 1
    assert checked == 5
