"""The whole pipeline through the command-line interface, at toy scale.

Runs the 12 command lines of ``cli.pipeline``: generates data, trains both
models, fits the three scalers, evaluates all five methods and prints the
comparison table. Artifacts land in demos/out_pipeline/; the same sequence
at full scale is the README's reference run.
"""

import subprocess
import sys
from pathlib import Path

from calibforge import cli

OUT = Path(__file__).with_name("out_pipeline")
TRAIN = ["--epochs", "10", "--lr", "1e-3", "--hidden", "32"]

for argv in cli.pipeline(OUT, 42, ["--n", "4000", "--n-features", "45", "--roster-size", "20"],
                         {"ce": TRAIN, "du": ["--k", "8", *TRAIN]}):
    print("$ calibforge " + " ".join(argv))
    subprocess.run([sys.executable, "-m", "calibforge", *argv], check=True)
    print()
print(f"all artifacts are in {OUT}/ - reports, reliability diagrams (CSV + SVG),")
print("per-sample prediction dumps, scaler files and the comparison table.")
