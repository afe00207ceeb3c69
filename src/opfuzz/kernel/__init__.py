"""Micro-kernel execution engine: IR, parser/lowering, and interpreter."""
