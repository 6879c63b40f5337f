#!/usr/bin/env python3
"""Markdown link and flag lint for the kgrid handbook (CI job `docs`).

Checks, over README.md, the repo-root *.md files, and docs/*.md:

  * every relative link `[text](path)` resolves to a file in the repo
    (anchors stripped; `http(s):`/`mailto:` targets are skipped);
  * every in-page anchor `[text](#anchor)` matches a heading of that file,
    using GitHub's slug rules (lowercase, punctuation dropped, spaces to
    dashes);
  * cross-file anchors `[text](FILE.md#anchor)` match a heading of the
    linked file.

And, over docs/BENCHMARKS.md's per-bench flag table (the `| Binary | What
it measures | Own flags |` table): every `--flag` a row advertises is
parsed by that bench's source (`bench/<binary>.cpp`) or by
`bench/bench_util.hpp` — either as a Cli key (`"flag"`) or as a raw
argv prefix (`"--flag`). google-benchmark's own `--benchmark_*` flags are
exempt.

And, over EXPERIMENTS.md's live throughput table (the `| workload | frame
| msgs/s | ...` table): every row's msgs/s cell equals the committed
BENCH_live_throughput.json rate of that workload, rounded to the precision
the cell prints (`1.28 M/s` must be 1.275M..1.285M). Likewise its current
crypto costs table (`| crypto_micro row | CPU time per op |`): every row's
time equals that row's `cpu_time` in BENCH_crypto_micro.json at the printed
unit and precision (`3005 µs` must be 3004.5..3005.5 µs).

Exit status is the number of problems (0 = clean). No third-party
dependencies; stdlib only, so the CI step is one `python3 tools/docs_lint.py`.
"""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Inline links only. Reference-style links are unused in this repo, and
# fenced code blocks are stripped before matching so example snippets like
# `foo[i](x)` cannot produce false positives.
LINK_RE = re.compile(r"\[[^\]^\[]*\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
FENCE_RE = re.compile(r"^(```|~~~).*?^\1\s*$", re.MULTILINE | re.DOTALL)


def slugify(heading: str) -> str:
    """GitHub's heading-to-anchor rule, close enough for our headings."""
    heading = re.sub(r"`([^`]*)`", r"\1", heading)  # drop code spans
    heading = re.sub(r"[^\w\s-]", "", heading.strip().lower())
    return re.sub(r"\s+", "-", heading)


def anchors_of(path: Path) -> set:
    text = FENCE_RE.sub("", path.read_text(encoding="utf-8"))
    return {slugify(m.group(1)) for m in HEADING_RE.finditer(text)}


def lint_file(path: Path) -> list:
    errors = []
    text = FENCE_RE.sub("", path.read_text(encoding="utf-8"))
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        if target.startswith("#"):  # in-page anchor
            if slugify(target[1:]) not in anchors_of(path):
                errors.append(f"{path.relative_to(ROOT)}: dead anchor {target}")
            continue
        file_part, _, anchor = target.partition("#")
        dest = (path.parent / file_part).resolve()
        if not dest.exists():
            errors.append(f"{path.relative_to(ROOT)}: broken link {target}")
            continue
        if anchor and dest.suffix == ".md":
            if slugify(anchor) not in anchors_of(dest):
                errors.append(
                    f"{path.relative_to(ROOT)}: dead anchor in link {target}")
    return errors


FLAG_TABLE_HEADER = "| Binary | What it measures | Own flags |"
FLAG_RE = re.compile(r"--([a-z][a-z0-9_]*)")
CELL_SPLIT_RE = re.compile(r"(?<!\\)\|")  # cell separators, not `\|`


def parses_flag(source: str, flag: str) -> bool:
    """True when `source` reads `--flag` as a Cli key or an argv prefix."""
    return re.search(rf'"(--)?{flag}(?![a-z0-9_])', source) is not None


def lint_flags(path: Path) -> list:
    lines = path.read_text(encoding="utf-8").splitlines()
    if FLAG_TABLE_HEADER not in lines:
        return [f"{path.relative_to(ROOT)}: per-bench flag table not found"]
    shared = (ROOT / "bench" / "bench_util.hpp").read_text(encoding="utf-8")
    errors = []
    for line in lines[lines.index(FLAG_TABLE_HEADER) + 2:]:
        if not line.startswith("|"):
            break
        cells = [c.strip() for c in CELL_SPLIT_RE.split(line.strip().strip("|"))]
        binary = cells[0].strip("`")
        source_path = ROOT / "bench" / f"{binary}.cpp"
        if not source_path.exists():
            errors.append(f"{path.relative_to(ROOT)}: no source for {binary}")
            continue
        source = source_path.read_text(encoding="utf-8")
        for flag in FLAG_RE.findall(cells[-1]):
            if flag.startswith("benchmark_"):
                continue  # parsed by google-benchmark itself
            if not (parses_flag(source, flag) or parses_flag(shared, flag)):
                errors.append(f"{path.relative_to(ROOT)}: {binary} does not "
                              f"parse advertised flag --{flag}")
    return errors


def table_rows(path: Path, header: str):
    """The cell lists of the markdown table under `header`, or None when
    the file has no such table."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if header not in lines:
        return None
    rows = []
    for line in lines[lines.index(header) + 2:]:
        if not line.startswith("|"):
            break
        rows.append(
            [c.strip() for c in CELL_SPLIT_RE.split(line.strip().strip("|"))])
    return rows


LIVE_TABLE_HEADER = "| workload | frame | msgs/s | MB/s | p50 | p99 | p999 |"
RATE_RE = re.compile(r"([0-9]+(?:\.([0-9]+))?)\s*([kM]?)/s")
RATE_SCALE = {"": 1.0, "k": 1e3, "M": 1e6}


def lint_live_table(path: Path, artifact: Path) -> list:
    """The live throughput table's msgs/s cells match the artifact."""
    where = path.relative_to(ROOT)
    rows = table_rows(path, LIVE_TABLE_HEADER)
    if rows is None:
        return [f"{where}: live throughput table not found"]
    rates = {row["workload"]: row["msgs_per_s"] for row in
             json.loads(artifact.read_text(encoding="utf-8"))["series"]}
    errors = []
    for cells in rows:
        workload = re.search(r"`([^`]+)`", cells[0])
        rate = RATE_RE.search(cells[2])
        if workload is None or rate is None:
            errors.append(f"{where}: unparsable live table row: {cells}")
            continue
        name = workload.group(1)
        if name not in rates:
            errors.append(f"{where}: live table row {name} is not in "
                          f"{artifact.name}")
            continue
        decimals = len(rate.group(2) or "")
        measured = round(rates[name] / RATE_SCALE[rate.group(3)], decimals)
        if measured != float(rate.group(1)):
            errors.append(f"{where}: live table says {name} runs at "
                          f"{rate.group(0)}, {artifact.name} says "
                          f"{measured:.{decimals}f} {rate.group(3)}/s")
    return errors


CRYPTO_TABLE_HEADER = "| crypto_micro row | CPU time per op |"
TIME_RE = re.compile(r"([0-9]+(?:\.([0-9]+))?)\s*(ns|µs|ms|s)(?![a-z])")
TIME_SCALE = {"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1.0}


def lint_crypto_table(path: Path, artifact: Path) -> list:
    """The current crypto costs table's CPU times match the artifact."""
    where = path.relative_to(ROOT)
    rows = table_rows(path, CRYPTO_TABLE_HEADER)
    if rows is None:
        return [f"{where}: crypto costs table not found"]
    seconds = {row["name"]: row["cpu_time"] * TIME_SCALE[row["time_unit"]]
               for row in
               json.loads(artifact.read_text(encoding="utf-8"))["series"]}
    errors = []
    for cells in rows:
        bench = re.search(r"`([^`]+)`", cells[0])
        time = TIME_RE.search(cells[1])
        if bench is None or time is None:
            errors.append(f"{where}: unparsable crypto table row: {cells}")
            continue
        name = bench.group(1)
        if name not in seconds:
            errors.append(f"{where}: crypto table row {name} is not in "
                          f"{artifact.name}")
            continue
        decimals = len(time.group(2) or "")
        unit = time.group(3)
        measured = round(seconds[name] / TIME_SCALE[unit], decimals)
        if measured != float(time.group(1)):
            errors.append(f"{where}: crypto table says {name} takes "
                          f"{time.group(0)}, {artifact.name} says "
                          f"{measured:.{decimals}f} {unit}")
    return errors


# Source-paper retrieval artifacts, not handbook pages: they carry scraped
# links (figures, arxiv assets) that are dead by construction.
EXCLUDE = {"PAPER.md", "PAPERS.md", "SNIPPETS.md", "ISSUE.md"}


def main() -> int:
    files = [p for p in sorted(ROOT.glob("*.md")) if p.name not in EXCLUDE]
    files += sorted((ROOT / "docs").glob("*.md"))
    errors = []
    for f in files:
        errors.extend(lint_file(f))
    errors.extend(lint_flags(ROOT / "docs" / "BENCHMARKS.md"))
    errors.extend(lint_live_table(ROOT / "EXPERIMENTS.md",
                                  ROOT / "BENCH_live_throughput.json"))
    errors.extend(lint_crypto_table(ROOT / "EXPERIMENTS.md",
                                    ROOT / "BENCH_crypto_micro.json"))
    for e in errors:
        print(e, file=sys.stderr)
    print(f"docs_lint: {len(files)} files, {len(errors)} problem(s)")
    return min(len(errors), 99)


if __name__ == "__main__":
    sys.exit(main())
