"""Reference implementations the optimised code is checked against."""
