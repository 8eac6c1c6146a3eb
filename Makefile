# Convenience targets for the gdr-shmem reproduction.

PYTHON ?= python

.PHONY: install test bench check examples experiments clean

install:
	$(PYTHON) -m pip install -e .

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

check:
	PYTHONPATH=src $(PYTHON) -m repro check --seeds 50 --repro-out check-repro.py
	PYTHONPATH=src $(PYTHON) -m repro check --seeds 10 --seed-start 10000 --faults --repro-out check-repro-faults.py

examples:
	PYTHONPATH=src $(PYTHON) examples/quickstart.py
	PYTHONPATH=src $(PYTHON) examples/overlap_demo.py
	PYTHONPATH=src $(PYTHON) examples/protocol_explorer.py
	PYTHONPATH=src $(PYTHON) examples/irregular_workload.py
	PYTHONPATH=src $(PYTHON) examples/upc_demo.py
	PYTHONPATH=src $(PYTHON) examples/stencil2d_demo.py
	PYTHONPATH=src $(PYTHON) examples/lbm_demo.py

experiments:
	PYTHONPATH=src $(PYTHON) -m repro run all --quick

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
