"""Reference implementations the production code is held equal to."""
