"""Golden SHA-256 digests of the analyze, convergence and simulate reports.

    PYTHONPATH=src python tests/golden.py        regenerate the reports of the
                                                 shipped configs and rewrite
                                                 golden_digests.json beside this file
    PYTHONPATH=src python tests/golden.py DIR    the same, keeping the reports in DIR

Each command runs through the CLI's `main` on a shipped config and writes its
JSON report; simulate also writes its snapshot CSV and JSON header.  A file's
digest pins every byte.  Each file also keeps one short digest per field, so a
mismatch can be traced to the first field that moved: a JSON field is a key
path with list indices dropped (observables[].mode_phase holds that value of
every step), a CSV field is a column.  Rewrite the digests only for a change
that is meant to move the numbers, and say which fields moved.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import pathlib
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
DIGESTS = HERE / "golden_digests.json"
CONFIGS = ("d1q2", "d1q3", "d2q5")
# command -> the files it writes into its output directory
FILES = {
    "analyze": ("analyze.json",),
    "convergence": ("convergence.json",),
    "simulate": ("simulate.json", "snapshot.csv", "snapshot_meta.json"),
}
FIELD_DIGEST_CHARS = 16


def write_reports(command: str, config: str, out: pathlib.Path) -> dict[str, pathlib.Path]:
    """Run `rvlbm <command>` on a shipped config into `out`; file key -> path written.

    The command must exit 0, as it does on every shipped config.
    """
    from rvlbm import reference_config
    from rvlbm.cli import main

    path = out / f"{config}.json"
    path.write_text(reference_config(config), encoding="utf-8")
    target = out / f"{command}-{config}"
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            main([command, "--config", str(path), "--output", str(target)])
        except SystemExit as exc:
            raise AssertionError(f"rvlbm {command} on {config} exited {exc.code}") from None
    return {f"{command}/{config}/{name}": target / name for name in FILES[command]}


def _json_fields(value, path: str, fields: dict) -> None:
    """Append each leaf of a JSON value to fields[its key path, list indices dropped]."""
    if isinstance(value, dict):
        for key, item in value.items():
            _json_fields(item, f"{path}.{key}" if path else key, fields)
    elif isinstance(value, list):
        for item in value:
            _json_fields(item, f"{path}[]", fields)
    else:
        fields.setdefault(path, []).append(value)


def _short(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()[:FIELD_DIGEST_CHARS]


def file_digests(path: pathlib.Path) -> dict:
    """The sha256 of a report file and the short digest of each of its fields, in file order."""
    data = path.read_bytes()
    text = data.decode("utf-8")
    if path.suffix == ".csv":
        header, *rows = csv.reader(io.StringIO(text))
        fields = {name: "\n".join(row[c] for row in rows) for c, name in enumerate(header)}
    else:
        values: dict = {}
        _json_fields(json.loads(text), "", values)
        fields = {name: json.dumps(v) for name, v in values.items()}
    return {"sha256": hashlib.sha256(data).hexdigest(),
            "fields": {name: _short(v) for name, v in fields.items()}}


def first_difference(key: str, got: dict, want: dict) -> str:
    """One line naming the first field of report `key` whose digest differs from the golden one."""
    for name, digest in want["fields"].items():
        if got["fields"].get(name) != digest:
            moved = "is missing" if name not in got["fields"] else "differs"
            return f"{key}: field {name} {moved}"
    extra = [name for name in got["fields"] if name not in want["fields"]]
    if extra:
        return f"{key}: field {extra[0]} is new"
    return f"{key}: every field is equal, the bytes between them differ"


def load() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def regenerate(out: pathlib.Path) -> dict:
    """Every report of every shipped config written into `out`: file key -> its digests."""
    return {key: file_digests(path)
            for command in FILES for config in CONFIGS
            for key, path in write_reports(command, config, out).items()}


if __name__ == "__main__":
    with contextlib.ExitStack() as stack:
        out = (pathlib.Path(sys.argv[1]) if len(sys.argv) > 1
               else pathlib.Path(stack.enter_context(tempfile.TemporaryDirectory())))
        out.mkdir(parents=True, exist_ok=True)
        digests = regenerate(out)
    DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} file digests to {DIGESTS}")
