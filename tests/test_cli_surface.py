"""Pins the ``repro`` command-line surface.

Two sha256 digests guard any refactor of :mod:`repro.cli`:

* the **declaration digest** covers every subcommand's argparse actions
  (option strings, dest, default, type name, choices, required, nargs,
  metavar, help), read from the actions themselves rather than from
  ``--help`` text, so it holds on every supported Python version;
* the **transcript digest** covers ``(argv, exit code, stdout, stderr)``
  of a fixed script of ``main()`` calls: each subcommand's success path
  at a tiny scale, and every usage error a handler can return.

Run-dependent text is normalised before hashing: temporary paths, the
progress line's rate and ETA, the fabric line's steal count, the chaos
sweep's elapsed time, histogram timings, and serve's port and pid.
argparse's own error text varies across Python versions, so for
arguments argparse rejects only the exit code is kept.

A deliberate surface change re-records a digest: the failing assertion
prints the new value.  To see what moved, dump the transcript at two
checkouts and diff them::

    PYTHONPATH=src python -m tests.test_cli_surface > transcript.txt

The same module holds the docs drift test: every long option (and short
alias) the parser declares must appear in its subcommand's entry of the
CLI block in ``docs/API.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import http.client
import io
import json
import os
import re
import signal
import socket
import sqlite3
import threading
import time
from pathlib import Path

from repro.cli import _build_parser, main
from repro.storage.db import TelemetryStore

from .serve.conftest import build_upload

#: sha256 of the parser's declarations (see :func:`declarations`).
DECLARATION_DIGEST = (
    "6a6005c2a508758a9c3bc68cb776c22f366a80a67559b3074c774cfefc268dcf"
)
#: sha256 of the normalised transcript (see :func:`transcript`).
TRANSCRIPT_DIGEST = (
    "2e0a3c8a56462e484b6664c597c49d1812d5bcdeb7ae900bad84b21cf4541441"
)

API_DOC = Path(__file__).resolve().parent.parent / "docs" / "API.md"


# ---------------------------------------------------------------------------
# (a) declarations
# ---------------------------------------------------------------------------


def _plain(value):
    if isinstance(value, range):
        return list(value)
    if isinstance(value, dict):
        return list(value)
    if isinstance(value, tuple):
        return list(value)
    return value


def _walk(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """Yield ``(path, action)`` for every action, depth first."""
    for action in parser._actions:
        yield path, action
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _walk(sub, path + (name,))


def declarations() -> list[dict]:
    records = []
    for path, action in _walk(_build_parser()):
        record = {
            "path": " ".join(path),
            "option_strings": list(action.option_strings),
            "dest": action.dest,
            "default": _plain(action.default),
            "type": getattr(action.type, "__name__", None),
            "choices": _plain(action.choices),
            "required": action.required,
            "nargs": action.nargs,
            "metavar": action.metavar,
            "help": action.help,
        }
        if isinstance(action, argparse._SubParsersAction):
            record["subcommands"] = [
                [choice.dest, choice.help] for choice in action._choices_actions
            ]
        records.append(record)
    return records


def _digest(records) -> str:
    text = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# (b) transcript
# ---------------------------------------------------------------------------

_RATE = re.compile(r"· [0-9.]+/s · ETA \S+ ·")
_STOLEN = re.compile(r"\d+ stolen")
_ELAPSED = re.compile(r"schedules in [0-9.]+s")
_PID = re.compile(r"\(pid \d+\)")
_TIMING = re.compile(r"(_seconds .*count=\d+) sum=.*$", re.MULTILINE)


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _interrupt_when_serving(port: int, done: threading.Event) -> None:
    """SIGINT this process once the daemon answers ``/healthz``."""
    deadline = time.monotonic() + 30.0
    while not done.is_set() and time.monotonic() < deadline:
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=1.0)
        try:
            connection.request("GET", "/healthz")
            connection.getresponse().read()
        except (OSError, http.client.HTTPException):
            time.sleep(0.05)
            continue
        finally:
            connection.close()
        os.kill(os.getpid(), signal.SIGINT)
        return


def _invoke(argv: list[str], serve_port: int | None = None):
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    err = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", write_through=True)
    done = threading.Event()
    killer = None
    if serve_port is not None:
        killer = threading.Thread(
            target=_interrupt_when_serving, args=(serve_port, done)
        )
        killer.start()
    rejected_by_argparse = False
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code, rejected_by_argparse = exc.code, True
    finally:
        done.set()
        if killer is not None:
            killer.join()
    return (
        code,
        out.buffer.getvalue().decode("utf-8", "backslashreplace"),
        # argparse words its own errors differently across Python
        # versions; only their exit code belongs to this surface.
        "<argparse error>\n"
        if rejected_by_argparse
        else err.buffer.getvalue().decode("utf-8", "backslashreplace"),
    )


def _flip_byte(path: Path, offset: int) -> None:
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))


def _script(tmp: Path):
    """The transcript's steps: argv lists, and set-up callables between."""
    t = str(tmp)
    local = tmp / "local.json"
    local.write_bytes(
        build_upload(
            [
                "http://localhost:5939/check",
                "http://127.0.0.1:8000/setuid",
                "http://192.168.0.12/cam.jpg",
                "https://cdn.example/app.js",
            ],
            checksums=True,
        )
    )
    (tmp / "public.json").write_bytes(
        build_upload(["https://cdn.example/app.js"])
    )
    (tmp / "damaged.json").write_bytes(local.read_bytes()[:-40])
    (tmp / "alien.json").write_text('{"hello": "world"}')
    (tmp / "junk.txt").write_text("definitely not sqlite\n")
    (tmp / "plan.json").write_text(
        json.dumps(
            {
                "seed": "surface",
                "faults": [
                    {"kind": "dns", "rate": 0.05},
                    {"kind": "storage-write", "rate": 0.02},
                ],
            }
        )
    )
    (tmp / "bad-plan.json").write_text(
        '{"seed": "x", "faults": [{"kind": "wedge"}]}'
    )
    coverage = {
        "format": "repro-chaos-coverage-v1",
        "seed": "chaos-conformance",
        "budget": 40,
        "schedules_run": 1,
        "elapsed_s": 0.5,
        "coverage_percent": 100.0,
        "seams": [
            {
                "kind": "dns",
                "hook": "dns_hook",
                "layer": "browser.dns",
                "driver": "campaign",
                "fires": 3,
                "covered": True,
            }
        ],
        "pairs_fired": [],
        "schedules": [],
        "violations": [],
    }
    (tmp / "complete.json").write_text(json.dumps(coverage))
    (tmp / "wrong-format.json").write_text('{"format": "bogus"}')
    repro = {
        "format": "repro-chaos-repro-v1",
        "driver": "campaign",
        "schedule": "single:dns",
        "invariant": "campaign-digest-equality",
        "detail": "digest diverged",
        "engine_seed": "chaos-conformance",
        "shrink_iterations": 1,
        "plan": {"seed": "surface", "faults": [{"kind": "dns", "rate": 0.05}]},
    }
    (tmp / "repro.json").write_text(json.dumps(repro))
    (tmp / "bogus-driver.json").write_text(
        json.dumps(dict(repro, driver="bogus"))
    )

    def dead_letters() -> None:
        with TelemetryStore(str(tmp / "dl.db")) as store:
            for os_name, domain in (
                ("windows", "ebay.com"),
                ("linux", "example.org"),
            ):
                store.record_dead_letter(
                    "top2020",
                    domain,
                    os_name,
                    error=-118,
                    failures=3,
                    reason="visit deadline exceeded",
                )
            store.commit()

    def damage_archive() -> None:
        path = tmp / "netlogs" / "top2020" / "windows" / "ebay.com.json"
        _flip_byte(path, path.read_bytes().index(b'"localhost') + 3)

    def damage_row() -> None:
        conn = sqlite3.connect(str(tmp / "crawl.db"))
        conn.execute(
            "UPDATE visits SET rank = rank + 9 "
            "WHERE domain = 'citi.com' AND os_name = 'linux'"
        )
        conn.commit()
        conn.close()

    busy = socket.socket()
    busy.bind(("127.0.0.1", 0))
    busy.listen(1)
    busy_port = busy.getsockname()[1]
    serve_port = _free_port()

    steps = [
        # -- argparse ----------------------------------------------------
        [],
        ["frobnicate"],
        ["table", "12"],
        ["chaos"],
        # -- analyze -------------------------------------------------------
        ["analyze", f"{t}/local.json"],
        ["analyze", f"{t}/public.json"],
        ["analyze", f"{t}/damaged.json"],
        ["analyze", "--json", f"{t}/local.json"],
        ["analyze", "--json", f"{t}/damaged.json"],
        ["analyze", f"{t}/local.json", f"{t}/public.json", f"{t}/damaged.json"],
        ["analyze", "--jobs", "2", f"{t}/local.json", f"{t}/public.json"],
        ["analyze", "--json", f"{t}/local.json", f"{t}/public.json"],
        ["analyze", f"{t}/absent.json"],
        ["analyze", f"{t}/alien.json"],
        ["analyze", "--json", f"{t}/absent.json"],
        ["analyze", "--json", f"{t}/alien.json"],
        ["analyze", f"{t}/local.json", f"{t}/absent.json", f"{t}/alien.json"],
        # -- netlog convert --------------------------------------------------
        ["netlog", "convert", f"{t}/local.json", f"{t}/local.nlbin"],
        ["netlog", "convert", f"{t}/local.nlbin", f"{t}/rt.json"],
        ["netlog", "convert", f"{t}/local.nlbin", "-", "--to", "json"],
        ["analyze", f"{t}/local.nlbin"],
        ["netlog", "convert", f"{t}/local.json", f"{t}/out.txt"],
        ["netlog", "convert", f"{t}/absent.json", f"{t}/out.json"],
        ["netlog", "convert", f"{t}/alien.json", f"{t}/out.nlbin"],
        ["netlog", "convert", f"{t}/local.json", f"{t}/no-dir/out.json"],
        # -- study -----------------------------------------------------------
        ["study", "--scale", "0.001"],
        [
            "study", "--scale", "0.001", "--db", f"{t}/crawl.db",
            "--netlog-dir", f"{t}/netlogs", "--metrics-out", f"{t}/m.json",
            "--trace-out", f"{t}/trace.json",
        ],
        ["study", "--scale", "0.001", "--db", f"{t}/crawl.db", "--resume"],
        [
            "study", "--scale", "0.001", "--retries", "2",
            "--fault-plan", f"{t}/plan.json", "--workers", "2",
        ],
        [
            "study", "--population", "top2021", "--scale", "0.001",
            "--webrtc-policy", "pre-m74",
        ],
        [
            "study", "--scale", "0.001", "--shards", "2",
            "--db", f"{t}/sharded.db", "--netlog-dir", f"{t}/shard-netlogs",
            "--netlog-format", "binary",
        ],
        ["study", "--resume"],
        ["study", "--population", "malicious", "--webrtc-policy", "mdns"],
        ["study", "--retries", "0"],
        ["study", "--workers", "-1"],
        ["study", "--shards", "-1"],
        ["study", "--shards", "2", "--workers", "2"],
        ["study", "--shard-dir", f"{t}/shards"],
        ["study", "--fault-plan", f"{t}/absent.json"],
        ["study", "--fault-plan", f"{t}/bad-plan.json"],
        ["study", "--shards", "2", "--fault-plan", f"{t}/bad-plan.json"],
        ["study", "--wall-deadline", "0"],
        ["study", "--scale", "0.001", "--visit-deadline", "100"],
        ["study", "--resume", "--retries", "0", "--fault-plan", f"{t}/absent.json"],
        ["study", "--fault-plan", f"{t}/bad-plan.json", "--wall-deadline", "0"],
        # -- metrics -----------------------------------------------------------
        ["metrics", f"{t}/m.json"],
        ["metrics", f"{t}/absent.json"],
        ["metrics", f"{t}/junk.txt"],
        # -- fsck --------------------------------------------------------------
        ["fsck", "--db", f"{t}/crawl.db", "--netlog-dir", f"{t}/netlogs"],
        ["fsck", "--db", f"{t}/sharded.db", "--netlog-dir", f"{t}/shard-netlogs"],
        damage_archive,
        damage_row,
        ["fsck", "--db", f"{t}/crawl.db", "--netlog-dir", f"{t}/netlogs", "--json"],
        [
            "fsck", "--db", f"{t}/crawl.db", "--netlog-dir", f"{t}/netlogs",
            "--repair", "--population", "top2020", "--scale", "0.001",
        ],
        ["fsck", "--db", f"{t}/crawl.db", "--netlog-dir", f"{t}/netlogs"],
        ["fsck", "--db", f"{t}/absent.db"],
        ["fsck", "--db", f"{t}/crawl.db", "--netlog-dir", f"{t}/no-dir"],
        ["fsck", "--db", f"{t}/junk.txt"],
        ["fsck", "--db", f"{t}/junk.txt", "--netlog-dir", f"{t}/no-dir"],
        # -- deadletter --------------------------------------------------------
        ["deadletter", "list", "--db", f"{t}/crawl.db"],
        ["deadletter", "retry", "--db", f"{t}/crawl.db"],
        dead_letters,
        ["deadletter", "list", "--db", f"{t}/dl.db"],
        ["deadletter", "list", "--db", f"{t}/dl.db", "--crawl", "top2021"],
        ["deadletter", "retry", "--db", f"{t}/dl.db", "--domain", "nomatch.example"],
        ["deadletter", "retry", "--db", f"{t}/dl.db", "--crawl", "top2020",
         "--domain", "ebay.com"],
        ["deadletter", "list", "--db", f"{t}/dl.db"],
        ["deadletter", "list", "--db", f"{t}/absent.db"],
        ["deadletter", "retry", "--db", f"{t}/junk.txt"],
        # -- paper artefacts ---------------------------------------------------
        ["table", "4"],
        ["table", "3", "--scale", "0.001"],
        ["table", "5w", "--scale", "0.001", "--webrtc-policy", "pre-m74"],
        ["figure", "3", "--scale", "0.001"],
        ["report", "--scale", "0.001"],
        ["report", "--scale", "0.001", "-o", f"{t}/report.txt"],
        ["validate", "--scale", "0.001"],
        ["lint", "ebay.com"],
        ["lint", "nowhere.invalid"],
        # -- chaos -------------------------------------------------------------
        ["chaos", "run", "--budget", "0"],
        ["chaos", "run", "--scale", "0"],
        ["chaos", "run", "--drivers", "campaign,bogus"],
        [
            "chaos", "run", "--drivers", "campaign", "--budget", "1",
            "--scale", "0.001", "--report", f"{t}/coverage.json",
        ],
        ["chaos", "coverage", f"{t}/coverage.json"],
        ["chaos", "coverage", f"{t}/complete.json"],
        ["chaos", "coverage", f"{t}/absent.json"],
        ["chaos", "coverage", f"{t}/junk.txt"],
        ["chaos", "coverage", f"{t}/wrong-format.json"],
        ["chaos", "replay", f"{t}/repro.json"],
        ["chaos", "replay", f"{t}/absent.json"],
        ["chaos", "replay", f"{t}/junk.txt"],
        ["chaos", "replay", f"{t}/bogus-driver.json"],
        # -- serve -------------------------------------------------------------
        ["serve", "--resume"],
        ["serve", "--fault-plan", f"{t}/absent.json"],
        ["serve", "--fault-plan", f"{t}/bad-plan.json"],
        ["serve", "--workers", "0"],
        ["serve", "--resume", "--fault-plan", f"{t}/absent.json", "--workers", "0"],
        ["serve", "--fault-plan", f"{t}/bad-plan.json", "--workers", "0"],
        ["serve", "--port", str(busy_port)],
        ["serve", "--port", str(serve_port), "--db", f"{t}/jobs.sqlite"],
        [
            "serve", "--port", str(serve_port), "--db", f"{t}/jobs.sqlite",
            "--resume",
        ],
    ]
    return steps, busy, {busy_port: "<busy-port>", serve_port: "<serve-port>"}


def transcript(tmp: Path) -> list[list]:
    steps, busy, ports = _script(tmp)
    roots = {str(tmp), os.path.realpath(tmp)}

    def normalise(text: str) -> str:
        for root in sorted(roots, key=len, reverse=True):
            text = text.replace(root, "<tmp>")
        for port, name in ports.items():
            text = text.replace(f"127.0.0.1:{port}", f"127.0.0.1:{name}")
        text = _RATE.sub("· <rate>/s · ETA <eta> ·", text)
        text = _STOLEN.sub("<n> stolen", text)
        text = _ELAPSED.sub("schedules in <t>s", text)
        text = _TIMING.sub(r"\1 <timing>", text)
        return _PID.sub("(pid <pid>)", text)

    entries = []
    try:
        for step in steps:
            if callable(step):
                step()
                continue
            serve_port = (
                int(step[step.index("--port") + 1])
                if step[:1] == ["serve"] and "--db" in step
                else None
            )
            code, out, err = _invoke(step, serve_port)
            argv = [ports.get(int(a), a) if a.isdigit() else a for a in step]
            entries.append(
                [[normalise(a) for a in argv], code, normalise(out), normalise(err)]
            )
    finally:
        busy.close()
    return entries


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------


def test_declarations_are_pinned():
    assert _digest(declarations()) == DECLARATION_DIGEST


def test_transcript_is_pinned(tmp_path):
    entries = transcript(tmp_path)
    assert len(entries) >= 40
    assert _digest(entries) == TRANSCRIPT_DIGEST


def _api_entries() -> dict[tuple[str, ...], str]:
    """Map each subcommand path to its entry text in docs/API.md's CLI block."""
    text = API_DOC.read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    entries: dict[tuple[str, ...], str] = {}
    current: list[tuple[str, ...]] = []
    for line in block.splitlines():
        if line.startswith("repro "):
            words = line.split()[1:]
            heads = [words[0]]
            if len(words) > 1 and re.fullmatch(r"[a-z]+(\|[a-z]+)*", words[1]):
                heads = [words[0] + " " + name for name in words[1].split("|")]
            current = [tuple(head.split()) for head in heads]
            for path in current:
                entries[path] = ""
        for path in current:
            entries[path] += line + "\n"
    return entries


def test_api_doc_lists_every_option():
    entries = _api_entries()
    missing = []
    for path, action in _walk(_build_parser()):
        if not path or isinstance(action, argparse._HelpAction):
            continue
        for option in action.option_strings:
            entry = entries.get(path)
            pattern = rf"(?<![\w-]){re.escape(option)}(?![\w-])"
            if entry is None or not re.search(pattern, entry):
                missing.append(f"{' '.join(path)} {option}")
    assert not missing, f"docs/API.md CLI block lacks: {', '.join(missing)}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory(prefix="cli-surface-") as tmp:
        entries = transcript(Path(tmp))
    for entry in entries:
        print(json.dumps(entry, ensure_ascii=False))
    print("declarations", _digest(declarations()))
    print("transcript", _digest(entries))
