"""Independent reference implementations the tests check the engine against."""
