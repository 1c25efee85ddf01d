"""The franklin-forge benchmark; see README.md."""
