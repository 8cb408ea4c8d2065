"""Network-centric services with control groups (slide 12):
AmpSubscribe, AmpFiles, AmpThreads, AmpIP."""

from .amp_files import AmpFiles, FileError
from .amp_ip import AmpIP, DatagramSocket
from .amp_subscribe import AmpSubscribe
from .amp_threads import AmpThreads, RemoteCallError

__all__ = [
    "AmpFiles",
    "AmpIP",
    "AmpSubscribe",
    "AmpThreads",
    "DatagramSocket",
    "FileError",
    "RemoteCallError",
]
