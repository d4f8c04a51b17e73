"""Every fenced python block of README.md runs, and prints what the block
says it prints.

A `print(...)` statement states its output either in a trailing comment,
`print(x)  # value`, or in a comment line right after it, `# value`.
"""

import ast
import contextlib
import io
import pathlib
import tokenize

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks(text):
    """(first line number, source) of each ```python block."""
    blocks, start, body = [], None, []
    for number, line in enumerate(text.splitlines(), start=1):
        if start is None:
            if line.strip() == "```python":
                start, body = number + 1, []
        elif line.strip() == "```":
            blocks.append((start, "\n".join(body) + "\n"))
            start = None
        else:
            body.append(line)
    assert start is None, "unclosed python block"
    return blocks


def _expected_output(source):
    """The output each top-level print statement states, in order."""
    lines = source.splitlines()
    comments = {tok.start[0]: tok.string for tok in
                tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT}
    expected = []
    for node in ast.parse(source).body:
        call = getattr(node, "value", None)
        if not (isinstance(node, ast.Expr) and isinstance(call, ast.Call)
                and getattr(call.func, "id", None) == "print"):
            continue
        end = node.end_lineno
        comment = comments.get(end)
        if comment is None and end < len(lines) and lines[end].lstrip().startswith("#"):
            comment = comments[end + 1]
        assert comment is not None, f"line {node.lineno}: print without its expected output"
        expected.append(comment.removeprefix("#").strip())
    return expected


def test_expected_output_reads_both_conventions():
    source = ("x = 2  # not an output\n"
              "print(x)  # 2\n"
              "print(\n    x + 1)\n# 3\n"
              "print('# 4')   # # 4\n")
    assert _expected_output(source) == ["2", "3", "# 4"]
    with pytest.raises(AssertionError, match="expected output"):
        _expected_output("print(1)\nx = 1  # 1\n")


BLOCKS = _python_blocks(README.read_text(encoding="utf-8"))


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 4


# named by ordinal, so that editing the prose above a block keeps its name
@pytest.mark.parametrize("start, source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_prints_its_stated_output(start, source):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, f"README.md:{start}", "exec"), {"__name__": "readme_example"})
    assert [line.rstrip() for line in out.getvalue().splitlines()] == _expected_output(source)
