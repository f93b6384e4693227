"""BT runtime: ties interpreter, translator and region cache together."""

from __future__ import annotations

from enum import Enum
from typing import Dict, Optional, Tuple

from repro.bt.interpreter import Interpreter
from repro.bt.nucleus import Nucleus
from repro.bt.region_cache import RegionCache, Translation
from repro.bt.translator import Translator
from repro.isa.blocks import BasicBlock, CodeRegion
from repro.obs.events import EventKind
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.uarch.config import DesignPoint


class ExecMode(Enum):
    """How a dynamic block executed."""

    INTERPRETED = "interpreted"
    TRANSLATED = "translated"


class BTRuntime:
    """Per-block execution steering through the BT subsystem.

    For every dynamic block the runtime decides whether execution continues
    inside the current translation, enters a translation from the region
    cache, or falls to the interpreter (possibly triggering translation once
    the block crosses the hotness threshold).  Entering a translation head
    is the event PowerChop's HTB observes (§IV-B2).
    """

    def __init__(
        self,
        design: DesignPoint,
        regions: Dict[int, CodeRegion],
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.design = design
        self.regions = dict(regions)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.region_cache = RegionCache()
        self.interpreter = Interpreter(design.hot_threshold)
        self.translator = Translator(design.max_translation_blocks)
        self.nucleus = Nucleus()
        self._current: Optional[Translation] = None
        self._pos = 0
        self.translation_cycles = 0.0
        self.translated_blocks = 0

    def on_block(
        self, block: BasicBlock
    ) -> Tuple[ExecMode, float, Optional[Translation]]:
        """Steer one dynamic block.

        Returns ``(mode, extra_cycles, entered)`` where ``extra_cycles`` is
        BT overhead beyond normal execution (translation cost) and
        ``entered`` is the translation whose head was just entered, if any.
        """
        current = self._current
        if current is not None:
            pcs = current.block_pcs
            pos = self._pos
            if pos < len(pcs) and pcs[pos] == block.pc:
                # Still on the translated trace.
                self._pos = pos + 1
                self.translated_blocks += 1
                return ExecMode.TRANSLATED, 0.0, None
            # Trace exit (end of translation or side exit on divergence).
            self._current = None

        translation = self.region_cache.lookup(block.pc)
        if translation is not None:
            self._current = translation
            self._pos = 1
            self.translated_blocks += 1
            return ExecMode.TRANSLATED, 0.0, translation

        became_hot = self.interpreter.note_execution(block.pc, block.n_instr)
        extra_cycles = 0.0
        if became_hot:
            tracer = self.tracer
            if tracer.active:
                tracer.emit(
                    EventKind.TRANSLATION_START,
                    tracer.now,
                    {"pc": block.pc, "region": block.region_id},
                )
            region = self.regions[block.region_id]
            new_translation = self.translator.translate(region, block)
            self.region_cache.insert(new_translation)
            self.interpreter.forget(block.pc)
            extra_cycles = (
                new_translation.n_instr * self.design.translate_cycles_per_instr
            )
            self.translation_cycles += extra_cycles
            if tracer.active:
                tracer.emit(
                    EventKind.TRANSLATION_COMMIT,
                    tracer.now + extra_cycles,
                    {
                        "tid": new_translation.tid,
                        "n_instr": new_translation.n_instr,
                        "cost_cycles": extra_cycles,
                    },
                )
        return ExecMode.INTERPRETED, extra_cycles, None
