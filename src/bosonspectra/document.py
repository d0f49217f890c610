"""Results documents: the JSON text json.dumps(doc, indent=2, sort_keys=True) writes, in chunks.

Each document is byte-identical to json.dumps(doc, indent=2,
sort_keys=True) plus a newline (a list document, such as the
permanent's [re, im] pair: json.dumps on one line), but its outcomes
rows are filled into one template, column by column, rather than run
through json's pure-Python indent encoder. The rows come in chunks and
each chunk is rendered and written before the next is taken, so a
document never has to be held whole. A file output is written to a
temporary file beside it and moved into place only once the whole
document is written, so a run that fails leaves no partial document.
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


class _Sig15(float):
    """A row value that documents print to 15 significant digits, as _sig15(value) would print.

    It holds the unrounded value: the writer formats it once
    (_sig15_texts) rather than round it to a float and then search for
    its shortest digits.
    """


# Exponents at which %.15g and repr may spell a value apart: 15 (repr
# writes 1e15 to 1e16 in full) and every three-digit one (subnormals keep
# fewer digits; the largest values round to infinity).
_RESPELL = re.compile(r"e[+-]\d{3}|e\+15")


def _sig15_texts(values: list):
    """float.__repr__(_sig15(x)) for each x, formatted once from its 15 significant digits.

    Two decimals of at most 15 digits never round to the same double
    (DBL_DIG = 15), so repr finds the digits of %.15g without its
    trailing zeros, and spells them alike apart from the ".0" of a
    value without a point and the exponents _RESPELL finds; a column
    with one of those is parsed and printed by repr. Returns None if a
    rounded value is not finite.
    """
    text = ("%.15g\n" * len(values)) % tuple(values)
    if "n" in text:  # nan, inf
        return None
    texts = text.split("\n")
    texts.pop()
    if _RESPELL.search(text):
        rounded = list(map(float, texts))
        return list(map(float.__repr__, rounded)) if all(map(math.isfinite, rounded)) else None
    return [t if "." in t or "e" in t else t + ".0" for t in texts]


def _column_texts(values: list):
    """One row key's values as json.dumps(indent=2) writes them inside a row, or None.

    Returns (pieces, slots): the text is pieces[0] + slots[0][i] +
    pieces[1] + ... + pieces[-1] for value i. Takes what json writes
    simply: finite floats, as float.__repr__, _Sig15 values whose 15
    digits are finite, as _sig15_texts, and outcomes, tuples of one length
    with one slot per entry, each entry an int or a tuple of ints. Each
    distinct tuple entry is rendered once. Anything else returns None.
    """
    kinds = set(map(type, values))
    if kinds == {float}:
        if not all(map(math.isfinite, values)):
            return None
        return ["", ""], [list(map(float.__repr__, values))]
    if kinds == {_Sig15}:
        texts = _sig15_texts(values)
        return None if texts is None else (["", ""], [texts])
    widths = set(map(len, values)) if kinds == {tuple} else set()
    if len(widths) != 1:
        return None
    (width,) = widths
    items = list(itertools.chain.from_iterable(values))
    item_kinds = set(map(type, items))
    if item_kinds == {int}:
        render = str
    elif item_kinds == {tuple} and set(map(type, itertools.chain.from_iterable(items))) <= {int}:
        head, sep, tail = "[\n          ", ",\n          ", "\n        ]"
        parts = {part: head + sep.join(map(str, part)) + tail if part else "[]" for part in set(items)}
        render = parts.__getitem__
    else:
        return None
    pieces = ["[\n        "] + [",\n        "] * (width - 1) + ["\n      ]"]
    return pieces, [list(map(render, map(operator.itemgetter(i), values))) for i in range(width)]


def _rows_text(rows: list) -> str:
    """Non-empty rows as json.dumps(rows, indent=2, sort_keys=True) writes them, one level deeper.

    The text runs from the first row's indent to the last row's closing
    brace, without the brackets around the list.

    Dict rows that share one set of string keys, each key holding values
    _column_texts takes, follow one template: the same constant text
    between the same slots in every row. The whole text is one join over
    the slots and constants. Rows of any other shape go through
    json.dumps, with _Sig15 values rounded by _sig15 first, so NaN,
    infinities, booleans and nested values read as json writes them.
    """
    uniform = set(map(type, rows)) == {dict} and set(map(type, rows[0])) == {str}
    keys = sorted(rows[0]) if uniform else []
    try:
        values = [[row[key] for row in rows] for key in keys]
    except KeyError:  # a row lacks one of the first row's keys
        values = []
    # Rows as long as the first that hold all its keys have its keys.
    same_keys = values and set(map(len, rows)) == {len(keys)}
    columns = list(map(_column_texts, values)) if same_keys else [None]
    if None in columns:
        rows = [
            {k: _sig15(v) if type(v) is _Sig15 else v for k, v in row.items()}
            if isinstance(row, dict) else row
            for row in rows
        ]
        return json.dumps(rows, indent=2, sort_keys=True).replace("\n", "\n  ")[2:-4]

    # A row is gaps[0] + slot 0 + gaps[1] + slot 1 + ... + the last slot + tail.
    gaps, slots, text = [], [], "    {\n"
    for i, (key, (pieces, texts)) in enumerate(zip(keys, columns)):
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

    A regular file, or a new one, is written as a temporary file in the
    same directory and moved over output, keeping its mode, only when
    the block ends without an exception; on one it is removed, and
    output is left as it was. A pipe or device is written directly.
    """
    if output == "-":
        yield sys.stdout
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
    `outcomes` holds its rows in chunks, lists of rows, each rendered by
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
                for rows in value:
                    if rows:
                        fh.write(opener + _rows_text(rows))
                        opener = ",\n"
                fh.write("[]" if opener == "[\n" else "\n  ]")
            else:
                value = value() if callable(value) else value
                fh.write(json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n  "))
        fh.write("\n}\n" if doc else "{}\n")
