"""The README's Python examples run in order, in one namespace, and every
result they document is what the code returns."""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.M | re.S)


def comments(block: str) -> dict[int, str]:
    """Line number -> the text of the comment on that line, after '# '."""
    return {
        tok.start[0]: tok.string[1:].removeprefix(" ")
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }


def documented(stmt: ast.stmt, notes: dict[int, str], lines: list[str]):
    """The result written after an expression: its trailing comment, or
    else the comment-only lines right below it, joined (a result too long
    for one line); None if there is neither."""
    if stmt.end_lineno in notes:
        return notes[stmt.end_lineno]
    parts = []
    line = stmt.end_lineno + 1
    while line in notes and lines[line - 1].lstrip().startswith("#"):
        parts.append(notes[line])
        line += 1
    return "".join(parts) or None


def test_readme_examples_give_the_documented_results():
    """Each `<expr>  # <text>` needs <text> to be repr(<expr>), or to start
    with it followed by a comma and a remark."""
    namespace: dict = {}
    checked = 0
    for block in python_blocks():
        notes, lines = comments(block), block.splitlines()
        for stmt in ast.parse(block).body:
            if not isinstance(stmt, ast.Expr):
                exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
                continue
            value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
            text = documented(stmt, notes, lines)
            if text is not None:
                want = repr(value)
                assert text == want or text.startswith(want + ","), (ast.unparse(stmt), want)
                checked += 1
    assert checked >= 7
