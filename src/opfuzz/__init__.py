"""Constraint-guided fuzzing toolchain for a tensor-operator framework.

The pipeline: collect operators from descriptors, extract validation
constraints from kernel IR by taint analysis, lift them to
frontend-parameter expressions, derive generation templates, and run
guided campaigns against a random baseline with crash findings
classified by input causality.

Nothing is re-exported here; import from the submodules: opfuzz.corpus,
opfuzz.registry, opfuzz.extractor, opfuzz.constraints, opfuzz.generator,
opfuzz.orchestrator, opfuzz.cli, opfuzz.kernel.ir, opfuzz.kernel.parser
and opfuzz.kernel.vm.
"""
