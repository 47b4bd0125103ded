from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs():
    section = README.read_text("utf-8").split("\n## Library use\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    scores = namespace["scores"]
    assert scores.shape == (2, len(namespace["mask"].test_ids))
    assert np.isfinite(scores).all()
