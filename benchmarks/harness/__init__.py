"""The one benchmark harness: four workloads over the real build → ingest →
serve → SPARQL-over-HTTP path, six end-to-end metrics, and an outside-in
layer table.  See README.md in this directory."""
