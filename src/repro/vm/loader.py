"""Module loader: placement, relocation, import binding, unloading.

The loader is the analog of the OS loader the TraceBack runtime hooks:
it places a module's code / rodata / data sections in process memory,
patches relocations now that absolute addresses are known, binds the
import table (to other modules' exports or to registered host functions
such as the runtime's ``__tb_buffer_wrap``), and notifies load hooks —
*before* building the decoded-instruction cache, so the runtime's DAG
rebasing and TLS-index rewriting (paper §2.3, §2.5) see effect.

Modules can be unloaded and reloaded repeatedly, which is exactly the
scenario that motivates keying runtime state by module checksum rather
than by load address.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.isa.encoding import decode
from repro.isa.instructions import Instr
from repro.isa.module import Module, Reloc
from repro.vm.errors import VMError
from repro.vm.memory import Memory, Segment

#: Alignment of module base addresses.
_ALIGN = 16


@dataclass
class LoadedModule:
    """A module mapped into a process."""

    module: Module
    code_base: int
    rodata_base: int
    data_base: int
    segments: list[Segment]
    #: Per-import binding: an absolute code address, or a host callable.
    import_bindings: list[int | Callable] = field(default_factory=list)
    #: Decoded-instruction cache, parallel to the code segment.
    decoded: list[Instr] = field(default_factory=list)
    #: The owning process's memory; bound by the loader so compiled
    #: units can capture ``load``/``store`` directly.
    memory: Memory | None = None
    #: What compiled units depend on — the code base and the code words
    #: ``decoded`` was built from; the unit cache's key.
    image_key: tuple | None = None
    #: Tier-3 unit table parallel to ``decoded`` (see
    #: :func:`repro.vm.blocks.bind_units`); bound lazily on first
    #: execution, ``None`` until then and again after every decode-cache
    #: refresh.
    block_table: list | None = None
    unloaded: bool = False

    @property
    def code_end(self) -> int:
        """One past the last code address."""
        return self.code_base + len(self.module.code)

    def contains_code(self, addr: int) -> bool:
        """Whether ``addr`` is inside this module's code."""
        return self.code_base <= addr < self.code_end

    def symbol_addr(self, name: str) -> int:
        """Absolute address of a module-local symbol."""
        section, offset = self.module.symbols[name]
        base = {
            "code": self.code_base,
            "rodata": self.rodata_base,
            "data": self.data_base,
        }[section]
        return base + offset

    def export_addr(self, name: str) -> int:
        """Absolute address of an exported function."""
        return self.code_base + self.module.exports[name]

    def refresh_decode_cache(self) -> None:
        """Re-decode the (possibly rewritten) code segment.

        Bound units were compiled from the old words; the table is
        dropped so the next run binds units of the fresh decode.
        """
        words = tuple(self.segments[0].words)
        self.decoded = [decode(word) for word in words]
        self.image_key = (self.code_base, words)
        self.block_table = None


class Loader:
    """Loads and unloads modules in one process's memory."""

    def __init__(self, memory: Memory):
        self._memory = memory
        self._loaded: list[LoadedModule] = []
        self._host_functions: dict[str, Callable] = {}
        self._next_base = 0x1000

    # ------------------------------------------------------------------
    def register_host_function(self, name: str, fn: Callable) -> None:
        """Expose a host callable to guest ``CALLX`` by import name.

        This is how the TraceBack runtime library exports
        ``__tb_buffer_wrap`` and friends into instrumented modules.
        """
        self._host_functions[name] = fn

    # ------------------------------------------------------------------
    def load(self, module: Module, on_loaded: Callable | None = None) -> LoadedModule:
        """Map ``module`` into memory and bind its imports.

        ``on_loaded`` (the runtime's module-load hook) runs after
        placement and relocation but before the decode cache is built,
        so it may rewrite code words (DAG rebasing, TLS fixups).
        """
        code = list(module.code)
        rodata = list(module.rodata)
        data = list(module.data)

        code_base = self._next_base
        rodata_base = code_base + len(code)
        data_base = rodata_base + len(rodata)
        end = data_base + len(data)
        self._next_base = (end + _ALIGN) & ~(_ALIGN - 1)

        self._patch_relocs(module, code, rodata, data, code_base, rodata_base, data_base)

        segments = [
            Segment(
                base=code_base,
                size=len(code),
                name=f"{module.name}.code",
                writable=False,
                executable=True,
                words=code,
            ),
            Segment(
                base=rodata_base,
                size=len(rodata),
                name=f"{module.name}.rodata",
                writable=False,
                words=rodata,
            ),
            Segment(
                base=data_base,
                size=len(data),
                name=f"{module.name}.data",
                words=data,
            ),
        ]
        for segment in segments:
            if segment.size:
                self._memory.map_segment(segment)

        loaded = LoadedModule(
            module=module,
            code_base=code_base,
            rodata_base=rodata_base,
            data_base=data_base,
            segments=segments,
            memory=self._memory,
        )
        loaded.import_bindings = [self._bind(name, module) for name in module.imports]
        self._loaded.append(loaded)

        if on_loaded is not None:
            on_loaded(loaded)
        loaded.refresh_decode_cache()
        return loaded

    def unload(self, loaded: LoadedModule) -> None:
        """Unmap a loaded module.  Its DAG range may be reassigned to it
        on reload (runtime policy, keyed by checksum)."""
        for segment in loaded.segments:
            if segment.size:
                self._memory.unmap(segment)
        loaded.unloaded = True
        self._loaded.remove(loaded)

    # ------------------------------------------------------------------
    def find_code(self, addr: int) -> LoadedModule | None:
        """The loaded module whose code contains ``addr``."""
        for loaded in self._loaded:
            if loaded.contains_code(addr):
                return loaded
        return None

    def find_export(self, name: str) -> int | None:
        """Absolute address of ``name`` in any loaded module."""
        for loaded in self._loaded:
            if name in loaded.module.exports:
                return loaded.export_addr(name)
        return None

    def modules(self) -> list[LoadedModule]:
        """All currently loaded modules."""
        return list(self._loaded)

    def module_named(self, name: str) -> LoadedModule | None:
        """Find a loaded module by name."""
        for loaded in self._loaded:
            if loaded.module.name == name:
                return loaded
        return None

    # ------------------------------------------------------------------
    def _bind(self, name: str, importer: Module) -> int | Callable:
        if name in self._host_functions:
            return self._host_functions[name]
        addr = self.find_export(name)
        if addr is not None:
            return addr
        raise VMError(f"module {importer.name!r}: unresolved import {name!r}")

    def _patch_relocs(
        self,
        module: Module,
        code: list[int],
        rodata: list[int],
        data: list[int],
        code_base: int,
        rodata_base: int,
        data_base: int,
    ) -> None:
        sections = {"code": code, "rodata": rodata, "data": data}
        bases = {"code": code_base, "rodata": rodata_base, "data": data_base}

        def resolve(reloc: Reloc) -> int:
            if reloc.symbol not in module.symbols:
                raise VMError(
                    f"module {module.name!r}: relocation against unknown "
                    f"symbol {reloc.symbol!r}"
                )
            section, offset = module.symbols[reloc.symbol]
            return bases[section] + offset

        for reloc in module.relocs:
            target = sections[reloc.section]
            addr = resolve(reloc)
            if reloc.kind == "word":
                target[reloc.offset] = addr & 0xFFFFFFFF
            elif reloc.kind == "lo16":
                target[reloc.offset] = (target[reloc.offset] & ~0xFFFF) | (addr & 0xFFFF)
            elif reloc.kind == "hi16":
                target[reloc.offset] = (target[reloc.offset] & ~0xFFFF) | (
                    (addr >> 16) & 0xFFFF
                )
            else:
                raise VMError(f"unknown relocation kind {reloc.kind!r}")
