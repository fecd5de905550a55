"""Layered scale benchmark for P-TPMiner (see ``scalebench/README.md``)."""
