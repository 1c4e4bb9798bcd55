"""The MDP assembler and disassembler."""

from .._lazy import lazy_exports

_EXPORTS = {
    ".assembler": ("Program", "assemble"),
    ".disassembler": ("disassemble", "isa_reference"),
}
__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
