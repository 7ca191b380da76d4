"""Generate the backend capability table embedded in ``docs/backends.md``.

The table is rendered from :func:`repro.core.backend.available_backends`
— the same declared-capability registry the session planner and the CLI
``backends`` command consume — so the documentation cannot drift from
the code.  The target file carries a marker pair::

    <!-- BEGIN GENERATED: capability-table (tools/gen_capability_table.py) -->
    ...
    <!-- END GENERATED: capability-table -->

and this tool rewrites everything between them.

    PYTHONPATH=src python tools/gen_capability_table.py            # rewrite
    PYTHONPATH=src python tools/gen_capability_table.py --check    # CI gate

``--check`` exits 1 when the committed table differs from the registry
(the CI docs job runs it; regenerate and commit on failure).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.backend import available_backends  # noqa: E402

BEGIN = "<!-- BEGIN GENERATED: capability-table (tools/gen_capability_table.py) -->"
END = "<!-- END GENERATED: capability-table -->"
DEFAULT_TARGET = Path(__file__).resolve().parent.parent / "docs" / "backends.md"


def render_table() -> str:
    """The capability/fallback table as GitHub-flavoured markdown."""
    rows = [
        "| backend | modes | IEP plans in | enumerates | kernels | traced | role |",
        "|---------|-------|--------------|------------|---------|--------|------|",
    ]
    for name, info in available_backends().items():
        caps = info.capabilities
        role = info.summary().rstrip(".")
        rows.append(
            "| `{}` | {} | {} | {} | {} | {} | {} |".format(
                name,
                ", ".join(sorted(caps.modes)),
                ", ".join(sorted(caps.iep_modes)) or "none",
                "yes" if caps.enumeration else "no",
                "yes" if caps.generated_kernels else "no",
                "yes" if caps.traced else "no",
                role,
            )
        )
    rows.append("")
    rows.append(
        "*traced* marks backends that emit fine-grained spans (per-depth "
        "frontier steps, per-task ranges) under the session's `execute` "
        "span when tracing is on — see "
        "[observability](observability.md)."
    )
    return "\n".join(rows)


def splice(text: str, table: str) -> str:
    """``text`` with the marker block's body replaced by ``table``."""
    try:
        head, rest = text.split(BEGIN, 1)
        _, tail = rest.split(END, 1)
    except ValueError:
        raise SystemExit(
            f"marker pair not found (expected {BEGIN!r} ... {END!r})"
        )
    return f"{head}{BEGIN}\n{table}\n{END}{tail}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="regenerate the capability table in docs/backends.md"
    )
    parser.add_argument("--target", default=str(DEFAULT_TARGET), metavar="PATH")
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if the committed table is stale instead of rewriting",
    )
    args = parser.parse_args(argv)

    target = Path(args.target)
    current = target.read_text()
    updated = splice(current, render_table())
    if args.check:
        if current != updated:
            print(
                f"{target}: capability table is stale — regenerate with "
                f"`PYTHONPATH=src python tools/gen_capability_table.py`",
                file=sys.stderr,
            )
            return 1
        print(f"{target}: capability table is current")
        return 0
    if current == updated:
        print(f"{target}: already current")
    else:
        target.write_text(updated)
        print(f"{target}: capability table rewritten")
    return 0


if __name__ == "__main__":
    sys.exit(main())
