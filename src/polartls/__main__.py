import gc
import sys

# Importing the command line (numpy among it) makes about 33,000 objects that
# live until exit.  The cyclic collector would scan them in the thirty-odd
# collections that run while they are made, and once more when the interpreter
# exits: tens of milliseconds of a short command.  So import with the collector
# off, move everything alive into the permanent generation, and turn the
# collector back on for the command's own garbage (the sequence the
# documentation of gc.freeze gives).  The modules the command imports as it
# runs (the writers, numpy.random, json) are frozen in turn once it returns, so
# the exit collection skips them too.  Only this entry point does it: importing
# the package, or calling cli.main in-process, leaves the collector as it is.
gc.disable()
from .cli import main  # noqa: E402

gc.freeze()
gc.enable()

code = main()
gc.freeze()
sys.exit(code)
