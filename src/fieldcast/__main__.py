"""``python -m fieldcast`` and the ``fieldcast`` command: the CLI, with BLAS
loaded on one thread (:mod:`fieldcast.blas`)."""

import sys

from .blas import loading_single_threaded


def main() -> int:
    with loading_single_threaded():
        from .cli import main as cli_main
    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
