from pathlib import Path

import netcoord


def test_package_stays_under_three_thousand_lines():
    # The line budget: new code is paid for by deletions (wc -l src/netcoord/*.py).
    files = sorted(Path(netcoord.__file__).parent.glob("*.py"))
    lines = sum(len(f.read_text().splitlines()) for f in files)
    assert len(files) > 1 and lines < 3000, lines
