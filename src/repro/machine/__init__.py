"""Whole-machine simulation: nodes, configuration, and the global loop."""

from .config import MachineConfig
from .jmachine import JMachine
from .node import Node, NodeNetworkInterface
from .stop import StopFlags

__all__ = ["MachineConfig", "JMachine", "Node", "NodeNetworkInterface",
           "StopFlags"]
