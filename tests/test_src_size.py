"""tests/src_size.py counts the lines that hold code, and no prose."""

from src_size import code_lines


def test_blank_comment_and_docstring_lines_are_not_counted():
    source = (
        '"""Module docstring."""\n'
        "\n"
        "# a comment\n"
        "x = (1,\n"
        "     2)  # a trailing comment\n"
        "def f():\n"
        '    """A docstring\n'
        '    of two lines."""\n'
        '    return """a string\n'
        'that is no docstring"""\n'
    )
    assert code_lines(source) == 5
