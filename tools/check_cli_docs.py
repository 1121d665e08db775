#!/usr/bin/env python
"""Cross-check every ``repro`` CLI flag and spec string in the docs against the code.

Docs rot silently: a renamed flag keeps its old spelling in README.md and
``docs/*.md`` until a reader hits the argparse error.  This script walks
every markdown file, collects each ``--flag`` token that appears on a line
invoking ``repro`` (including backslash-continued invocations), and fails
if any of them is not a real option of the named subcommand — introspected
live from :func:`repro.cli.build_parser`, so the check can never itself go
stale.  It also fails on documented subcommands that do not exist, and on
any concrete ``gen:``/``traffic:``/``churn:`` spec string that the real
parser rejects (``churn:`` specs are parsed, not resolved against a fleet;
templates containing ``...`` are skipped).

Run from the repository root::

    PYTHONPATH=src python tools/check_cli_docs.py

Exit status 0 when every documented flag exists and every documented spec
parses, 1 otherwise (listing each offending file, line and flag or spec).
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

from repro.cli import build_parser
from repro.experiments.scenarios import parse_generator_spec
from repro.runtime.faults import parse_churn_spec
from repro.serving.traffic import parse_traffic_spec

ROOT = Path(__file__).resolve().parents[1]
DOC_FILES = sorted(ROOT.glob("docs/*.md")) + [ROOT / "README.md"]
FLAG_RE = re.compile(r"(?<![\w-])--[a-z][\w-]*")
# A repro invocation: `repro <subcommand> ...` or `python -m repro.cli <sub> ...`
INVOCATION_RE = re.compile(r"(?:^|[\s$`(])(?:repro|python -m repro\.cli)\s+([a-z][\w-]*)")
SPEC_PARSERS = {"gen:": parse_generator_spec, "traffic:": parse_traffic_spec, "churn:": parse_churn_spec}
# A spec: its prefix, then the characters a spec body is written with.
SPEC_RE = re.compile(r"(?<![\w-])(gen:|traffic:|churn:)([\w.=,;:@+-]*)")


def collect_cli_surface():
    """{subcommand: set of option strings} from the live parser."""
    parser = build_parser()
    surface = {}
    # Argparse keeps subparsers in a private action; introspect it so the
    # check tracks the parser, not a hand-maintained list.
    for action in parser._actions:
        if hasattr(action, "choices") and isinstance(action.choices, dict):
            for name, subparser in action.choices.items():
                flags = set()
                for sub_action in subparser._actions:
                    flags.update(sub_action.option_strings)
                surface[name] = flags
    return surface


def documented_invocations(text):
    """Yield ``(line_number, subcommand, flags)`` for each repro invocation.

    A trailing backslash continues the invocation onto the next line, so
    multi-line examples contribute every flag to their opening command.
    """
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        line = lines[i]
        match = INVOCATION_RE.search(line)
        # `from repro import X` is Python, not a CLI invocation.
        if not match or re.match(r"\s*(from|import)\s", line):
            i += 1
            continue
        start = i
        command = match.group(1)
        chunk = [line]
        while lines[i].rstrip().endswith("\\") and i + 1 < len(lines):
            i += 1
            chunk.append(lines[i])
        yield start + 1, command, FLAG_RE.findall(" ".join(chunk))
        i += 1


def documented_specs(text):
    """Yield ``(line_number, prefix, spec)`` for each concrete spec string.

    Bare prefixes (prose about the ``gen:`` grammar) and templates such as
    ``gen:key=value,...`` are not concrete; trailing punctuation is prose.
    """
    for line_no, line in enumerate(text.splitlines(), 1):
        for match in SPEC_RE.finditer(line):
            prefix, body = match.groups()
            body = "" if "..." in body else body.rstrip(",.;:")
            if body:
                yield line_no, prefix, prefix + body


def main() -> int:
    surface = collect_cli_surface()
    problems = []
    checked = specs = 0
    for doc in DOC_FILES:
        if not doc.exists():
            continue
        rel = doc.relative_to(ROOT)
        text = doc.read_text()
        for line_no, prefix, spec in documented_specs(text):
            specs += 1
            try:
                SPEC_PARSERS[prefix](spec)
            except ValueError as exc:
                problems.append(f"{rel}:{line_no}: spec {spec!r} does not parse: {exc}")
        for line_no, command, flags in documented_invocations(text):
            if command not in surface:
                problems.append(f"{rel}:{line_no}: unknown subcommand 'repro {command}'")
                continue
            for flag in flags:
                checked += 1
                if flag not in surface[command]:
                    problems.append(
                        f"{rel}:{line_no}: 'repro {command}' has no {flag} flag"
                    )
    if problems:
        print(f"{len(problems)} documented CLI reference(s) do not match the code:")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(
        f"ok: {checked} documented flag reference(s) and {specs} spec string(s) across "
        f"{len([d for d in DOC_FILES if d.exists()])} file(s) all match the code"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
