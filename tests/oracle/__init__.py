"""Reference implementations that the package is checked against (see
tests/test_oracle.py): the engine with its fine-grained tape ops, the tree
and flat encoders, the decoder, the loss and the search as they were before
they became fused kernels."""
