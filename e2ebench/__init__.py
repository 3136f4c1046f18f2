"""End-to-end benchmark of the reproduction: see README.md in this directory."""
