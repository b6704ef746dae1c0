"""corebench: the repo's one end-to-end + per-layer benchmark (see README.md)."""
