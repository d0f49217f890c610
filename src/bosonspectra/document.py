"""Results documents: the JSON text json.dumps(doc, indent=2, sort_keys=True) writes, in chunks.

Each document is byte-identical to json.dumps(doc, indent=2,
sort_keys=True) plus a newline (a list document, such as the
permanent's [re, im] pair: json.dumps on one line), with its outcomes
as rows. The writer takes those outcomes as chunks of columns: each
chunk maps a row key to the values of that key, one per row, and names
their format once, outcome tuples (_outcome_column), floats written by
repr (_repr_column) or floats written to 15 significant digits
(_sig15_column). Each column is rendered once and filled into one row
template, rather than run through json's pure-Python indent encoder. A
value strict JSON cannot spell, NaN or an infinity, raises ValueError.
Each chunk is rendered and written before the next is taken, so a
document never has to be held whole. A file output is written to a
temporary file beside it and moved into place only once the whole
document is written, so a run that fails leaves no partial document;
stdout is flushed before the writer returns.
"""

import contextlib
import itertools
import json
import math
import operator
import os
import re
import stat
import sys


def _sig15(x: float) -> float:
    """Round to 15 significant digits, the document's probability precision."""
    return float(f"{float(x):.15g}")


# Exponents at which %.15g and repr may spell a value apart: 15 (repr
# writes 1e15 to 1e16 in full) and every three-digit one (subnormals keep
# fewer digits; the largest values round to infinity).
_RESPELL = re.compile(r"e[+-]\d{3}|e\+15")


def _repr_column(values: list):
    """Floats as json writes them, float.__repr__; ValueError if one is not finite.

    A column format, as _rows_text takes it: returns (pieces, slots),
    the constants around and between one row's slots and each slot's
    texts, row by row.
    """
    if not all(map(math.isfinite, values)):
        raise ValueError("a document value is not finite, and strict JSON has no spelling for it")
    return ["", ""], [list(map(float.__repr__, values))]


def _sig15_column(values: list):
    """Floats as json writes _sig15(x), formatted once from their 15 significant digits.

    A column format (see _repr_column). Two decimals of at most 15
    digits never round to the same double (DBL_DIG = 15), so repr finds
    the digits of %.15g without its trailing zeros, and spells them
    alike apart from the ".0" of a value without a point and the
    exponents _RESPELL finds; a column with one of those, or with nan
    or inf, is parsed and goes through _repr_column, so a value that is
    not finite, or rounds to infinity, raises ValueError.
    """
    text = ("%.15g\n" * len(values)) % tuple(values)
    texts = text.split("\n")
    texts.pop()
    if "n" in text or _RESPELL.search(text):
        return _repr_column(list(map(float, texts)))
    return ["", ""], [[t if "." in t or "e" in t else t + ".0" for t in texts]]


def _outcome_column(values: list):
    """Outcomes as json writes them inside a row: one slot per entry (see _repr_column).

    An outcome is a tuple of counts, a signature, or of count tuples, a
    resolved outcome with one part per basis function; every outcome of
    a column has one length and one kind. Each distinct part is rendered
    once.
    """
    width = len(values[0])
    render = str
    if isinstance(values[0][0], tuple):
        head, sep, tail = "[\n          ", ",\n          ", "\n        ]"
        parts = set(itertools.chain.from_iterable(values))
        render = {part: head + sep.join(map(str, part)) + tail for part in parts}.__getitem__
    pieces = ["[\n        "] + [",\n        "] * (width - 1) + ["\n      ]"]
    return pieces, [list(map(render, map(operator.itemgetter(i), values))) for i in range(width)]


def _rows_text(chunk: dict) -> str:
    """A chunk's rows as json.dumps(rows, indent=2, sort_keys=True) writes them, one level deeper.

    chunk maps each row key to a column, (format, values): one value
    per row, at least one row, and the function that renders them,
    _outcome_column, _repr_column or _sig15_column. The text runs from
    the first row's indent to the last row's closing brace, without the
    brackets around the list. Every row follows one template, the same
    constant text between the same slots, so the whole text is one join
    over the slots and constants.
    """
    # A row is gaps[0] + slot 0 + gaps[1] + slot 1 + ... + the last slot + tail.
    gaps, slots, text = [], [], "    {\n"
    for i, key in enumerate(sorted(chunk)):
        render, values = chunk[key]
        pieces, texts = render(values)
        text += (",\n" if i else "") + f"      {json.dumps(key)}: " + pieces[0]
        for piece, column in zip(pieces[1:], texts):
            gaps.append(text)
            slots.append(column)
            text = piece
    tail = text + "\n    }"
    # Every slot's texts, each followed by the constant after it, row after row.
    lanes = []
    for column, gap in zip(slots, gaps[1:] + [tail + ",\n" + gaps[0]]):
        lanes += [column, itertools.repeat(gap)]
    out = [gaps[0], *itertools.chain.from_iterable(zip(*lanes))]
    out[-1] = tail
    return "".join(out)


@contextlib.contextmanager
def _output_stream(output: str):
    """A text stream to write a document to: stdout for "-", else the file output names.

    stdout is flushed when the block ends, with or without an exception,
    so every byte written is out, or its OSError raised, before the
    caller returns. A regular file, or a new one, is written as a
    temporary file in the same directory and moved over output, keeping
    its mode, only when the block ends without an exception; on one it
    is removed, and output is left as it was. A pipe or device is
    written directly.
    """
    if output == "-":
        try:
            yield sys.stdout
        finally:
            sys.stdout.flush()
        return
    try:
        mode = os.stat(output).st_mode
    except FileNotFoundError:
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(output, "w", encoding="utf-8") as fh:
            yield fh
        return
    path = os.path.realpath(output)
    tmp = f"{path}.{os.getpid()}.tmp"
    # os.open, like open(), leaves the new file's mode to the umask.
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8") as fh:
            yield fh
        if mode is not None:
            os.chmod(tmp, stat.S_IMODE(mode))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_document(doc, output: str) -> None:
    """Write doc as json.dumps(doc, indent=2, sort_keys=True) + newline would, byte for byte.

    A list document (the permanent) goes on one line. A dict document's
    `outcomes` holds its rows in column chunks, each rendered by
    _rows_text and written in its turn; every other value, all small,
    goes through json.dumps re-indented one level. Values are read in
    key order as they are written, and a callable value is called then,
    so a sweep's `sum` can follow the chunks it adds up. See
    _output_stream for where the text goes.
    """
    with _output_stream(output) as fh:
        if not isinstance(doc, dict):
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
            return
        for i, key in enumerate(sorted(doc)):
            fh.write((",\n  " if i else "{\n  ") + json.dumps(key) + ": ")
            value = doc[key]
            if key == "outcomes":
                opener = "[\n"
                for chunk in value:
                    fh.write(opener + _rows_text(chunk))
                    opener = ",\n"
                fh.write("[]" if opener == "[\n" else "\n  ]")
            else:
                value = value() if callable(value) else value
                fh.write(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  "))
        fh.write("\n}\n" if doc else "{}\n")
