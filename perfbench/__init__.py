"""Repository benchmark (see ``perfbench/run.py`` and ``perfbench/README.md``)."""
