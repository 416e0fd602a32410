"""Seeded benchmark of the keep/drop + scrub engine; see README.md."""
