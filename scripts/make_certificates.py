#!/usr/bin/env python3
"""Regenerate the shipped nefness certificates in certs/ through
``moricone cert example-tsukioka``: for each worked product-of-projective-
spaces example (n1, n2, d) that command builds and verifies the chain and
grid product certificates, and this script writes the two its JSON report
embeds.  It stops, writing nothing more, at the first non-zero exit.
"""

import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from moricone import cli  # noqa: E402

EXAMPLES = ((2, 2, 2), (3, 2, 2), (2, 3, 3))


def main() -> int:
    out_dir = ROOT / "certs"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        report = pathlib.Path(tmp) / "report.json"
        for n1, n2, d in EXAMPLES:
            code = cli.run(["cert", "example-tsukioka", "--n1", str(n1),
                            "--n2", str(n2), "--d", str(d),
                            "--out", str(report)])
            if code:
                return code
            doc = json.loads(report.read_text(encoding="utf-8"))
            for tag in ("chain", "grid"):
                path = out_dir / f"tsukioka_{n1}_{n2}_{d}_{tag}.json"
                path.write_text(json.dumps(doc[f"{tag}_certificate"], indent=2)
                                + "\n", encoding="utf-8")
                print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
