import clickdetect
from clickdetect import audio_io, detector, evaluation, soundscape, spectral

MODULES = (audio_io, spectral, detector, soundscape, evaluation)


def test_public_names_resolve_once():
    assert len(clickdetect.__all__) == len(set(clickdetect.__all__))
    for name in clickdetect.__all__:
        assert hasattr(clickdetect, name), name


def test_public_names_are_the_modules_names():
    from_modules = {name for module in MODULES for name in module.__all__}
    assert set(clickdetect.__all__) == from_modules | {"__version__"}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(clickdetect, name) is getattr(module, name)
