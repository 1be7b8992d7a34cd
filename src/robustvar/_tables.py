"""The one table format of every CSV the package writes or reads: UTF-8, LF
endings, a header line, comma cells, floats at 17 significant digits (exact
round trip, but for the sign of a zero: every zero is written ``0``), booleans
as ``true``/``false``.  Imports nothing from the package."""


def format_cell(kind: type, value) -> str:
    if kind is bool:
        return "true" if value else "false"
    if kind is float:  # -0.0 + 0.0 is 0.0, so a zero is written 0, never -0
        return format(float(value) + 0.0, ".17g")
    return str(kind(value))


def write_table(path, header, kinds, rows) -> None:
    """Write the header cells, then each row with cell i formatted as ``kinds[i]``."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_cell(kind, v) for kind, v in zip(kinds, row)) + "\n")


def read_table(fh, names, kinds, skip=0) -> list[list]:
    """Rows of an open table past its header line, blank lines skipped; each line
    drops ``skip`` cells, then holds one per name, parsed as ``kinds``; a bool
    cell must read ``true`` or ``false``.  A bad row or cell raises
    ``ValueError`` naming its line, and for a cell its column."""
    rows = []
    for num, line in enumerate(fh, start=2):
        if not line.strip():
            continue
        cells = line.rstrip("\r\n").split(",")[skip:]
        if len(cells) != len(names):
            raise ValueError(f"line {num} has {len(cells)} values, the header names {len(names)}")
        row = []
        for name, kind, cell in zip(names, kinds, cells):
            if kind is bool:
                if cell not in ("true", "false"):
                    raise ValueError(f"line {num}, column {name}: {cell!r} is not true or false")
                row.append(cell == "true")
                continue
            try:
                row.append(kind(cell))
            except ValueError:
                raise ValueError(f"line {num}, column {name}: "
                                 f"{cell.strip()!r} is not a number") from None
        rows.append(row)
    return rows
