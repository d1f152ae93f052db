"""repro.pipeline — the paper-reproduction pipeline.

Turns each figure/table of the paper into a registered, importable
**stage** (name, scale preset, run function, artifact schema, paper
expectations) and powers the ``python -m repro`` CLI:

* ``repro list`` — show stages and presets;
* ``repro run fig3 table2 ...`` — run specific stages;
* ``repro reproduce --preset smoke|default|paper`` — the full reproduction,
  parallel across processes, writing text reports, versioned JSON
  artifacts and a ``manifest.json`` (git SHA, preset, timings, status);
* ``repro check`` — re-evaluate every stage's qualitative paper claims
  against the artifacts on disk.
"""

from .artifacts import (
    DEFAULT_RESULTS_DIR,
    load_manifest,
    load_stage_artifact,
    write_manifest,
    write_stage_artifact,
)
from .presets import PRESET_NAMES, PRESETS, Preset, get_preset
from .runner import execute_stage, run_stages
from .stage import (
    SCHEMA_VERSION,
    Expectation,
    ExpectationResult,
    Stage,
    StageOutput,
    all_stages,
    get_stage,
    register_stage,
    stage_names,
)

__all__ = [
    "DEFAULT_RESULTS_DIR",
    "Expectation",
    "ExpectationResult",
    "PRESETS",
    "PRESET_NAMES",
    "Preset",
    "SCHEMA_VERSION",
    "Stage",
    "StageOutput",
    "all_stages",
    "execute_stage",
    "get_preset",
    "get_stage",
    "load_manifest",
    "load_stage_artifact",
    "register_stage",
    "run_stages",
    "stage_names",
    "write_manifest",
    "write_stage_artifact",
]
