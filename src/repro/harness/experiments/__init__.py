"""One experiment module per table/figure (index: ``python -m repro.harness --list``)."""
