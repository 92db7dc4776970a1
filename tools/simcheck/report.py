"""Findings and output rendering (human text + JSON)."""

import json
from dataclasses import asdict, dataclass


@dataclass
class Finding:
    file: str
    line: int
    rule: str
    message: str
    contract: str = ""


def render_text(findings, out):
    for f in sorted(findings, key=lambda x: (x.file, x.line, x.rule)):
        print(f"{f.file}:{f.line}: [{f.rule}] {f.message}", file=out)
        if f.contract:
            print(f"    contract: {f.contract}", file=out)


def render_json(findings, meta, path):
    doc = {
        "tool": "simcheck",
        "rules": meta.get("rules", []),
        "files_analyzed": meta.get("files_analyzed", 0),
        "findings": [
            asdict(f)
            for f in sorted(
                findings, key=lambda x: (x.file, x.line, x.rule)
            )
        ],
        "finding_count": len(findings),
    }
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")
