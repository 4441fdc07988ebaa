"""Reference implementations that the fused decoder and the stacked search
are checked against (see tests/test_oracle.py)."""
