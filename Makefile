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
	for f in examples/*.py; do PYTHONPATH=src $(PYTHON) $$f || exit 1; done

experiments:
	PYTHONPATH=src $(PYTHON) -m repro run all --quick

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .hypothesis
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
