"""
One-shot verification
=====================

Re-derives every numerical claim the package reproduces and prints the
record-by-record outcome.  The same report is available from the command
line as `hmap verify --suite all`.  The JSON report goes to the directory
named by the first argument, by default demos/output.
"""

import json
import sys
from pathlib import Path

from hmap import run_suite

report = run_suite("all")
for line in report.summary_lines():
    print(line)

out = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).parent / "output"
out.mkdir(parents=True, exist_ok=True)
path = out / "verification_report.json"
path.write_text(json.dumps(report.to_dict(), indent=2))
print("\nfull report:", path)
